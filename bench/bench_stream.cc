// Streaming inference benchmark (ISSUE 10): synthetic drifting scenes.
//
// Each stream is a fixed base frame with a small bright patch that drifts
// one pixel per frame — the canonical near-duplicate workload (dashcam,
// fixed security camera, sensor sweep). Every frame is evaluated twice:
//
//  * full:   a from-scratch forward at the top subnet level (what a server
//            without stream state must do), and
//  * stream: stream_delta_forward over the per-stream cached ladder — only
//            dirty tiles + conv receptive-field halos recompute.
//
// The two logits vectors are memcmp'd per frame (the exact-mode bitwise
// contract; any mismatch fails the run), MACs are the analytic counts both
// paths report, and wall-clock per-frame latency is measured for each. A
// final section drives the serve path (STEPPING_STREAM=exact semantics via
// ServeConfig::stream) with the same scenes to time the end-to-end frame
// loop. Every stream's frame is submitted at once, so a worker serves the
// frames it pops together as one batched delta pass, each stream with its
// own dirty rectangle; each served frame's logits are memcmp'd against a
// direct forward and its MACs must equal the stream path's for the same
// (stream, frame). Results go to BENCH_stream.json; the summary line prints
// `bitwise=ok` for CI to grep, and the process exits non-zero if bitwise
// parity (either path's) fails or the MAC reduction falls below the 30%
// acceptance gate.
//
// Honours STEPPING_SCALE (quick|full|paper) for stream/frame counts.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "baselines/any_width.h"
#include "common.h"
#include "core/latency.h"
#include "core/macs.h"
#include "models/models.h"
#include "serve/server.h"
#include "stream/stream.h"
#include "tensor/ops.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

namespace stepping::bench {
namespace {

struct StreamBenchConfig {
  std::string model = "lenet3c1l";
  int classes = 10;
  double expansion = 1.8;
  double width = 0.25;
  int subnets = 4;
  std::uint64_t seed = 42;
  int streams = 0;  ///< 0 = scale default
  int frames = 0;   ///< per stream; 0 = scale default
  int tile = 8;
  int patch = 6;  ///< drifting-patch edge in pixels
};

Network make_model(const StreamBenchConfig& c) {
  ModelConfig mc;
  mc.classes = c.classes;
  mc.expansion = c.expansion;
  mc.width_mult = c.width;
  mc.seed = c.seed + 7;
  Network net = build_model(c.model, mc);
  const std::int64_t full = full_macs(net);
  std::vector<std::int64_t> budgets;
  for (int i = 1; i <= c.subnets; ++i) {
    budgets.push_back(full * i / (c.subnets + 1));
  }
  assign_prefix_subnets(net, solve_prefix_fractions(net, budgets));
  return net;
}

/// Frame f of stream s: the stream's base image with a patch x patch square
/// brightened at a position drifting one pixel per frame (wrapping). Frame
/// f differs from frame f-1 only inside the union of the two patch
/// positions, so consecutive frames are near-duplicates by construction.
Tensor scene_frame(const Tensor& base, int patch, int f) {
  Tensor x = base;  // deep copy
  const int ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int r = f % (h - patch);
  const int c = (2 * f) % (w - patch);
  for (int k = 0; k < ch; ++k) {
    float* plane = x.data() + static_cast<std::int64_t>(k) * h * w;
    for (int rr = r; rr < r + patch; ++rr) {
      for (int cc = c; cc < c + patch; ++cc) plane[rr * w + cc] += 1.0f;
    }
  }
  return x;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct PathStats {
  std::vector<double> frame_ms;
  std::int64_t total_macs = 0;
  std::size_t frames = 0;
  double macs_per_frame() const {
    return frames ? static_cast<double>(total_macs) /
                        static_cast<double>(frames)
                  : 0.0;
  }
};

int run(const StreamBenchConfig& c) {
  const BenchScale scale = bench_scale();
  const int streams =
      c.streams > 0 ? c.streams : (scale == BenchScale::kQuick ? 4 : 8);
  const int frames =
      c.frames > 0 ? c.frames : (scale == BenchScale::kQuick ? 24 : 120);

  Network net = make_model(c);
  Network ref = net.clone();
  const int level = c.subnets;
  std::printf(
      "bench_stream  scale=%s  model=%s subnets=%d streams=%d frames=%d "
      "tile=%d patch=%d\n",
      to_string(scale), c.model.c_str(), c.subnets, streams, frames, c.tile,
      c.patch);

  std::vector<Tensor> bases;
  Rng rng(c.seed + 404);
  for (int s = 0; s < streams; ++s) {
    Tensor base({1, net.input_channels(), net.input_h(), net.input_w()});
    fill_normal(base, 0.0f, 1.0f, rng);
    bases.push_back(std::move(base));
  }

  stream::StreamConfig scfg;
  scfg.enabled = true;
  scfg.tile = c.tile;
  const auto sig = stream::network_signature(net);

  PathStats full_stats, stream_stats;
  std::int64_t dirty_tiles = 0, total_tiles = 0, cold_frames = 0;
  long mismatches = 0;
  std::vector<std::unique_ptr<stream::StreamState>> states;
  for (int s = 0; s < streams; ++s) {
    states.push_back(std::make_unique<stream::StreamState>());
  }
  const std::int64_t full_frame_macs = subnet_macs(net, level);
  // The stream path's MACs per (frame, stream), which the serve path must
  // match frame for frame.
  std::vector<std::int64_t> stream_macs;
  for (int f = 0; f < frames; ++f) {
    for (int s = 0; s < streams; ++s) {
      const Tensor x = scene_frame(bases[static_cast<std::size_t>(s)],
                                   c.patch, f + s);
      Timer tf;
      SubnetContext ctx;
      ctx.subnet_id = level;
      const Tensor direct = ref.forward(x, ctx);
      full_stats.frame_ms.push_back(tf.milliseconds());
      full_stats.total_macs += full_frame_macs;
      ++full_stats.frames;

      Timer ts;
      const stream::StreamResult r = stream_delta_forward(
          net, *states[static_cast<std::size_t>(s)], x, level, scfg, sig);
      stream_stats.frame_ms.push_back(ts.milliseconds());
      stream_stats.total_macs += r.macs;
      stream_macs.push_back(r.macs);
      ++stream_stats.frames;
      dirty_tiles += r.dirty_tiles;
      total_tiles += r.total_tiles;
      if (r.cold) ++cold_frames;

      if (r.logits.shape() != direct.shape() ||
          std::memcmp(r.logits.data(), direct.data(),
                      sizeof(float) *
                          static_cast<std::size_t>(direct.numel())) != 0) {
        ++mismatches;
      }
    }
  }

  const double reduction =
      full_stats.macs_per_frame() > 0.0
          ? 100.0 * (1.0 - stream_stats.macs_per_frame() /
                               full_stats.macs_per_frame())
          : 0.0;
  std::printf(
      "full    macs/frame=%.0f  p50=%.3fms p99=%.3fms\n",
      full_stats.macs_per_frame(), percentile(full_stats.frame_ms, 0.50),
      percentile(full_stats.frame_ms, 0.99));
  std::printf(
      "stream  macs/frame=%.0f  p50=%.3fms p99=%.3fms  dirty=%.1f%% "
      "cold=%lld/%zu\n",
      stream_stats.macs_per_frame(), percentile(stream_stats.frame_ms, 0.50),
      percentile(stream_stats.frame_ms, 0.99),
      total_tiles > 0 ? 100.0 * static_cast<double>(dirty_tiles) /
                            static_cast<double>(total_tiles)
                      : 0.0,
      static_cast<long long>(cold_frames), stream_stats.frames);

  // Serve path: the same scenes through serve::Server with streaming on —
  // end-to-end per-frame latency including queueing and planning. Frames of
  // one stream are submitted in order (one in flight per stream).
  double serve_p50 = 0.0, serve_p99 = 0.0;
  std::uint64_t serve_saved = 0;
  long serve_mismatches = 0;
  {
    serve::ServeConfig cfg;
    cfg.max_subnet = c.subnets;
    cfg.num_workers = 2;
    cfg.max_batch = 4;
    cfg.stream = 1;
    cfg.device = calibrate_device(net, c.subnets);
    serve::Server server(net, cfg);
    std::vector<double> ms;
    for (int f = 0; f < frames; ++f) {
      std::vector<std::future<serve::ServedResult>> futs;
      for (int s = 0; s < streams; ++s) {
        serve::Request req;
        req.input = scene_frame(bases[static_cast<std::size_t>(s)], c.patch,
                                f + s);
        req.stream_id = static_cast<std::uint64_t>(s + 1);
        futs.push_back(server.submit(std::move(req)));
      }
      for (int s = 0; s < streams; ++s) {
        const serve::ServedResult res =
            futs[static_cast<std::size_t>(s)].get();
        ms.push_back(res.final_ms);
        SubnetContext ctx;
        ctx.subnet_id = res.exit_subnet;
        const Tensor direct = ref.forward(
            scene_frame(bases[static_cast<std::size_t>(s)], c.patch, f + s),
            ctx);
        if (res.exit_subnet != level || res.logits.shape() != direct.shape() ||
            std::memcmp(res.logits.data(), direct.data(),
                        sizeof(float) *
                            static_cast<std::size_t>(direct.numel())) != 0 ||
            res.macs != stream_macs[static_cast<std::size_t>(f * streams + s)]) {
          ++serve_mismatches;
        }
      }
    }
    server.shutdown();
    serve_p50 = percentile(ms, 0.50);
    serve_p99 = percentile(ms, 0.99);
    serve_saved =
        server.metrics().counter("serve_stream_macs_saved_total").value();
    std::printf(
        "serve   frames=%zu  p50=%.3fms p99=%.3fms  macs_saved=%llu  "
        "mismatches=%ld\n",
        ms.size(), serve_p50, serve_p99,
        static_cast<unsigned long long>(serve_saved), serve_mismatches);
  }
  const bool bitwise_ok = mismatches == 0 && serve_mismatches == 0;

  if (std::FILE* f = std::fopen("BENCH_stream.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"config\": {\"model\": \"%s\", \"subnets\": %d, \"streams\": %d, "
        "\"frames\": %d, \"tile\": %d, \"patch\": %d},\n"
        "  \"full\": {\"macs_per_frame\": %.0f, \"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f},\n"
        "  \"stream\": {\"macs_per_frame\": %.0f, \"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"dirty_tile_frac\": %.4f, \"cold_frames\": %lld},\n"
        "  \"serve\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"macs_saved\": %llu},\n"
        "  \"reduction_pct\": %.2f,\n"
        "  \"bitwise\": \"%s\"\n"
        "}\n",
        c.model.c_str(), c.subnets, streams, frames, c.tile, c.patch,
        full_stats.macs_per_frame(), percentile(full_stats.frame_ms, 0.50),
        percentile(full_stats.frame_ms, 0.99), stream_stats.macs_per_frame(),
        percentile(stream_stats.frame_ms, 0.50),
        percentile(stream_stats.frame_ms, 0.99),
        total_tiles > 0 ? static_cast<double>(dirty_tiles) /
                              static_cast<double>(total_tiles)
                        : 0.0,
        static_cast<long long>(cold_frames), serve_p50, serve_p99,
        static_cast<unsigned long long>(serve_saved), reduction,
        bitwise_ok ? "ok" : "FAIL");
    std::fclose(f);
    std::printf("wrote BENCH_stream.json\n");
  }

  // The acceptance gate: exact mode must be bitwise identical, on the
  // stream path and on every served frame, AND cut at least 30% of
  // MACs/frame on the drifting-scene workload.
  std::printf("stream summary: reduction=%.1f%% mismatches=%ld bitwise=%s\n",
              reduction, mismatches + serve_mismatches,
              bitwise_ok ? "ok" : "FAIL");
  if (!bitwise_ok) return 1;
  if (reduction < 30.0) {
    std::fprintf(stderr, "bench_stream: reduction %.1f%% below the 30%% gate\n",
                 reduction);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace stepping::bench

int main(int argc, char** argv) {
  using namespace stepping;
  using namespace stepping::bench;
  const std::vector<std::string> known = {"model",   "classes", "expansion",
                                          "width",   "subnets", "seed",
                                          "streams", "frames",  "tile",
                                          "patch"};
  CliArgs args(argc, argv, known);
  if (!args.ok()) {
    for (const auto& e : args.errors()) std::fprintf(stderr, "%s\n", e.c_str());
    return 2;
  }
  StreamBenchConfig c;
  c.model = args.get("model", c.model);
  c.classes = static_cast<int>(args.get_int("classes", c.classes));
  c.expansion = args.get_double("expansion", c.expansion);
  c.width = args.get_double("width", c.width);
  c.subnets = static_cast<int>(args.get_int("subnets", c.subnets));
  c.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  c.streams = static_cast<int>(args.get_int("streams", 0));
  c.frames = static_cast<int>(args.get_int("frames", 0));
  c.tile = static_cast<int>(args.get_int("tile", c.tile));
  c.patch = static_cast<int>(args.get_int("patch", c.patch));
  try {
    return run(c);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_stream: %s\n", e.what());
    return 1;
  }
}
