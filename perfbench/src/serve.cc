// serve_mixed: one generator thread drives an in-process serve::Server (2
// workers, kernel pool of 1, max_batch 4, re-formation on, admission off,
// precision auto, streaming on) in a closed loop: kInFlight independent
// LeNet-3C1L requests with a fixed deadline, plus kStreams camera streams
// that each keep one drifting-scene frame in flight with no deadline.
// Small-model requests make queueing, re-formation, planning, the flight
// recorder and the int8 preliminary a large share of the work; the frames
// exercise the stream module.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "core/incremental.h"
#include "core/latency.h"
#include "quant/calibration.h"
#include "serve/server.h"
#include "stream/stream.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using stepping::Network;
using stepping::Tensor;
namespace serve = stepping::serve;

constexpr double kWidth = 0.5;
constexpr int kLevels = 4;
constexpr int kClasses = 10;  ///< LeNet-3C1L's CIFAR-10 head
constexpr int kWorkers = 2;
constexpr int kMaxBatch = 4;
constexpr int kInFlight = 8;  ///< independent requests kept in flight
constexpr int kStreams = 4;   ///< camera streams, one frame in flight each
/// Fixed per-request deadline. It is a constant of the workload, never
/// derived from a measurement of the ladder: a faster ladder must show up as
/// a higher exit level under the same deadline.
constexpr double kDeadlineMs = 33.0;
constexpr int kImages = 64;
constexpr int kSide = 32;      ///< input images are 3 x kSide x kSide
constexpr int kPatch = 6;      ///< drifting bright patch of a scene frame
/// scene_frame(base, f) depends on f only through f % kScenePeriod.
constexpr int kScenePeriod = kSide - kPatch;
constexpr int kSetups = 5;
constexpr int kWarmupRequests = 96;
constexpr double kProbeSeconds = 3.0;
constexpr int kFitReps = 25;   ///< timed passes per point of the planner fit

/// The planner's latency model, a constant of the workload like the
/// deadline: pass ms = fixed_overhead_ms + MACs / macs_per_second. The
/// values are the medians of five least-squares fits to ladder_step passes
/// of this model at batch 1 and 4 on one kernel thread (fit_planner_device,
/// printed by every traced run) on a 4-vCPU KVM guest (Xeon, Sapphire
/// Rapids): fixed overhead 1.25-2.02 ms, throughput 1.00-1.21 GMAC/s.
/// Calibrating at set-up instead (calibrate_device) would carry the host's
/// contention at that moment into every planning decision of the run; a
/// faster ladder still shows up, as passes that finish early and leave
/// slack the planner spends on higher levels under the fixed deadline.
stepping::DeviceModel planner_device() {
  stepping::DeviceModel dev;
  dev.name = "perfbench serve_mixed";
  dev.macs_per_second = 1.15e9;
  dev.fixed_overhead_ms = 1.3;
  return dev;
}

/// Frame f of a stream: its base image with a kPatch x kPatch square
/// brightened at a position drifting one pixel per frame, so consecutive
/// frames differ only around the patch.
Tensor scene_frame(const Tensor& base, int f) {
  Tensor x = base;
  const int ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int r = f % kScenePeriod;
  const int c = (2 * r) % kScenePeriod;
  for (int k = 0; k < ch; ++k) {
    float* plane = x.data() + static_cast<std::int64_t>(k) * h * w;
    for (int rr = r; rr < r + kPatch; ++rr) {
      for (int cc = c; cc < c + kPatch; ++cc) plane[rr * w + cc] += 1.0f;
    }
  }
  return x;
}

struct ServeState {
  Network ref;  ///< fp32 reference for the output checks
  std::vector<Tensor> images;
  std::vector<Tensor> bases;      ///< one per stream
  std::vector<int> next_frame;    ///< per stream
  std::unique_ptr<serve::Server> server;
};

std::unique_ptr<ServeState> setup_serve(std::uint64_t seed) {
  auto st = std::make_unique<ServeState>();
  Network net = build_table_one(lenet_spec(kWidth), nullptr);
  st->ref = net.clone();
  st->images = random_images(kImages, seed);
  st->bases = random_images(kStreams, seed ^ 0x5eed5eedULL);
  st->next_frame.assign(kStreams, 0);
  serve::ServeConfig cfg;
  cfg.max_subnet = kLevels;
  cfg.num_workers = kWorkers;
  cfg.max_batch = kMaxBatch;
  cfg.reform = 1;
  cfg.admit = serve::AdmitPolicy::kOff;
  cfg.precision = stepping::quant::Precision::kAuto;
  cfg.stream = 1;
  cfg.device = planner_device();
  st->server = std::make_unique<serve::Server>(net, cfg);
  // Warm-up: fill the packed-weight caches, the int8 packs and the stream
  // states before anything is timed.
  std::vector<std::future<serve::ServedResult>> warm;
  for (int i = 0; i < kWarmupRequests; ++i) {
    serve::Request req;
    req.input = st->images[static_cast<std::size_t>(i % kImages)];
    req.deadline_ms = kDeadlineMs;
    warm.push_back(st->server->submit(std::move(req)));
  }
  for (int s = 0; s < kStreams; ++s) {
    for (int f = 0; f < 2; ++f) {
      serve::Request req;
      req.input = scene_frame(st->bases[static_cast<std::size_t>(s)],
                              st->next_frame[static_cast<std::size_t>(s)]++);
      req.stream_id = static_cast<std::uint64_t>(s + 1);
      warm.push_back(st->server->submit(std::move(req)));
      warm.back().wait();
    }
  }
  for (auto& f : warm) f.get();
  return st;
}

/// Reference logits of every input the loop can send, at every level: a
/// direct fp32 forward of each image and of each stream's kScenePeriod
/// distinct frames. Computed once, after set-up, so each completion is
/// checked as it arrives with a memcmp and no result is kept.
class References {
 public:
  explicit References(ServeState& st) {
    for (const Tensor& img : st.images) add(st.ref, img);
    for (const Tensor& base : st.bases) {
      for (int f = 0; f < kScenePeriod; ++f) add(st.ref, scene_frame(base, f));
    }
  }
  const Tensor& image(int i, int level) const { return at(i, level); }
  const Tensor& frame(int stream, int f, int level) const {
    return at(kImages + stream * kScenePeriod + f % kScenePeriod, level);
  }

 private:
  void add(Network& net, const Tensor& x) {
    for (int l = 1; l <= kLevels; ++l) logits_.push_back(forward_at(net, x, l));
  }
  const Tensor& at(int input, int level) const {
    return logits_[static_cast<std::size_t>(input * kLevels + level - 1)];
  }
  std::vector<Tensor> logits_;
};

/// fp32 finals and stream frames must be memcmp-equal to a direct forward
/// at the exit level. An answer whose last step was the int8 preliminary is
/// exempt.
bool output_ok(const References& refs, bool stream, int input, int frame,
               const serve::ServedResult& r) {
  if (!r.steps.empty() && r.steps.back().int8) return true;
  if (r.exit_subnet < 1 || r.exit_subnet > kLevels) return false;
  const Tensor& want = stream ? refs.frame(input, frame, r.exit_subnet)
                              : refs.image(input, r.exit_subnet);
  return r.logits.numel() == kClasses && same_bits(r.logits, want);
}

/// What a phase leaves behind: counts and the latency samples of its
/// independent requests, in buffers whose size does not depend on the run.
struct PhaseStats {
  SampleRing first_ms, final_ms, queue_ms;
  std::size_t in_window = 0;   ///< completions inside the timed window
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t requests = 0;  ///< independent requests sent
  std::uint64_t completed = 0; ///< independent requests answered
  std::uint64_t hits = 0;      ///< ... whose first answer beat the deadline
  std::uint64_t exit_sum = 0;
  std::array<std::uint64_t, kLevels> exits{};
  std::int64_t result_macs = 0;  ///< sum of ServedResult::macs, frames too
};

/// Request spans from a ServedResult's timestamps: the request, its queue
/// wait, then one child per executed level.
void add_request_spans(Tracer& tr, bool stream, int slot, int input,
                       Clock::time_point submitted, std::int64_t item,
                       const serve::ServedResult& r) {
  auto at = [&](double ms) {
    return submitted + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(ms));
  };
  const int tid = stream ? 100 + input : 1 + slot;
  const int req = tr.add(stream ? "serve.frame" : "serve.request", submitted,
                         at(r.final_ms), -1, item, tid);
  tr.add("serve.queue", submitted, at(r.queue_ms), req, item, tid);
  double prev = r.queue_ms;
  for (const serve::StepUpdate& u : r.steps) {
    tr.add((u.int8 ? "serve.int8.L" : "serve.step.L") + std::to_string(u.subnet),
           at(prev), at(u.at_ms), req, item, tid);
    prev = u.at_ms;
  }
}

/// The closed loop: keeps kInFlight requests and one frame per stream in
/// flight for `seconds`, then drains. Every completion is checked as it
/// arrives; only those inside the window count toward the printed
/// throughput. With a tracer, each completion's spans are recorded.
PhaseStats run_phase(ServeState& st, const References& refs, double seconds,
                     Tracer* tr) {
  struct Slot {
    bool stream = false;
    int input = 0;
    int frame = 0;
    std::int64_t item = 0;  ///< submission number, the span item id
    Clock::time_point submitted;
    std::future<serve::ServedResult> fut;
  };
  PhaseStats ps;
  std::size_t next_image = 0;
  auto submit = [&](Slot& s) {
    serve::Request req;
    if (s.stream) {
      s.frame = st.next_frame[static_cast<std::size_t>(s.input)]++;
      req.input = scene_frame(st.bases[static_cast<std::size_t>(s.input)], s.frame);
      req.stream_id = static_cast<std::uint64_t>(s.input + 1);
    } else {
      s.input = static_cast<int>(next_image++ % st.images.size());
      req.input = st.images[static_cast<std::size_t>(s.input)];
      req.deadline_ms = kDeadlineMs;
      ++ps.requests;
    }
    s.item = static_cast<std::int64_t>(ps.attempted++);
    s.submitted = Clock::now();
    s.fut = st.server->submit(std::move(req));
  };
  auto complete = [&](const Slot& s, int slot, const serve::ServedResult& r) {
    if (!output_ok(refs, s.stream, s.input, s.frame, r)) ++ps.mismatched;
    ps.result_macs += r.macs;
    if (tr) {
      add_request_spans(*tr, s.stream, slot, s.input, s.submitted, s.item, r);
    }
    if (s.stream) return;
    ++ps.completed;
    ps.first_ms.push(r.first_result_ms);
    ps.final_ms.push(r.final_ms);
    ps.queue_ms.push(r.queue_ms);
    if (r.exit_subnet >= 1 && r.exit_subnet <= kLevels) {
      ps.exit_sum += static_cast<std::uint64_t>(r.exit_subnet);
      ++ps.exits[static_cast<std::size_t>(r.exit_subnet - 1)];
    }
    if (!r.deadline_missed) ++ps.hits;
  };
  std::vector<Slot> slots;
  slots.resize(kInFlight + kStreams);
  for (int s = 0; s < kStreams; ++s) {
    slots[static_cast<std::size_t>(kInFlight + s)].stream = true;
    slots[static_cast<std::size_t>(kInFlight + s)].input = s;
  }
  const auto t0 = Clock::now();
  for (Slot& s : slots) submit(s);
  const double window_ms = seconds * 1e3;
  std::size_t open = slots.size();
  std::vector<bool> live(slots.size(), true);
  while (open > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!live[i] ||
          s.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        continue;
      }
      progressed = true;
      const auto now = Clock::now();
      try {
        complete(s, static_cast<int>(i), s.fut.get());
        if (ms_between(t0, now) <= window_ms) ++ps.in_window;
      } catch (const std::exception&) {
        ++ps.refused;
      }
      if (ms_between(t0, now) < window_ms) {
        submit(s);
      } else {
        live[i] = false;
        --open;
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return ps;
}

double hit_rate(const PhaseStats& ps) {
  return ps.requests ? static_cast<double>(ps.hits) / static_cast<double>(ps.requests)
                     : 0.0;
}

double mean_exit_level(const PhaseStats& ps) {
  return ps.completed ? static_cast<double>(ps.exit_sum) /
                            static_cast<double>(ps.completed)
                      : 0.0;
}

void report_phase(const PhaseStats& ps, Report& rep) {
  rep.attempted(ps.attempted);
  rep.failed(ps.refused, "requests failed or refused");
  rep.failed(ps.mismatched, "served logits differ from forward() at the exit level");
  std::printf("serve_mixed: %llu completions (%llu requests sent), "
              "deadline %.1f ms, deadline_hit_rate %.4f ratio, "
              "mean_exit_level %.4f level, exits L1-L4",
              static_cast<unsigned long long>(ps.attempted - ps.refused),
              static_cast<unsigned long long>(ps.requests), kDeadlineMs,
              hit_rate(ps), mean_exit_level(ps));
  for (const std::uint64_t n : ps.exits) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

/// Least-squares fit of the planner's device model, pass ms =
/// fixed_overhead_ms + MACs / macs_per_second, to ladder_step passes of
/// `net` on this host: the median of kFitReps timed passes for each level
/// at batch 1 and at kMaxBatch, on the caller's kernel pool.
stepping::DeviceModel fit_planner_device(Network& net, const std::vector<Tensor>& images) {
  std::vector<std::pair<double, double>> points;  // (MACs, ms)
  const std::size_t img = 3 * kSide * kSide;
  for (const int b : {1, kMaxBatch}) {
    Tensor x({b, 3, kSide, kSide});
    for (std::size_t i = 0; i < static_cast<std::size_t>(b); ++i) {
      std::memcpy(x.data() + i * img, images[i].data(), img * sizeof(float));
    }
    std::vector<std::vector<double>> ms(kLevels);
    for (int r = 0; r < kFitReps; ++r) {
      std::vector<Tensor> outs;
      for (int l = 1; l <= kLevels; ++l) {
        const auto t0 = Clock::now();
        stepping::ladder_step(net, x, outs, l - 1, l);
        ms[static_cast<std::size_t>(l - 1)].push_back(ms_between(t0, Clock::now()));
      }
    }
    for (int l = 1; l <= kLevels; ++l) {
      points.emplace_back(static_cast<double>(stepping::ladder_step_macs(net, l - 1, l)) * b,
                          median(ms[static_cast<std::size_t>(l - 1)]));
    }
  }
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : points) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(points.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);  // ms per MAC
  stepping::DeviceModel dev;
  dev.name = "least-squares fit";
  dev.macs_per_second = 1e3 / slope;
  dev.fixed_overhead_ms = std::max(0.0, (sy - slope * sx) / n);
  return dev;
}

}  // namespace

void run_serve_mixed(const Args& args, Report& rep) {
  stepping::ThreadPool::set_global_threads(1);
  print_run_record(args, 1, kWorkers);
  std::unique_ptr<ServeState> st;
  const double setup_s =
      timed_setups(kSetups, st, [&] { return setup_serve(args.seed); });
  const References refs(*st);
  // A traced run takes the counters both workloads move over this same
  // phase. The phase records no spans (the serve spans are rebuilt from
  // ServedResult timestamps by probe_serve_layers), so it runs only once.
  const SharedCounters counters;
  const PhaseStats ps = run_phase(*st, refs, args.seconds, nullptr);
  const double rss_mb = peak_rss_mb();
  report_phase(ps, rep);
  if (args.trace) {
    counters.report(rep);
    std::printf("trace overhead: not applicable, serve_mixed's timed phase records "
                "no spans\n");
    return;
  }
  rep.metric("setup_s", setup_s, "s");
  rep.metric("peak_rss_mb", rss_mb, "MiB");
  report_timings(rep, ps.first_ms.values(), ps.final_ms.values(), ps.in_window,
                 args.seconds);
}

void probe_serve_layers(const Args& args, Tracer& tr, Report& rep) {
  stepping::ThreadPool::set_global_threads(1);
  const auto q0 = global_counter("stepping_quant_packs_total");
  std::unique_ptr<ServeState> st = setup_serve(args.seed);
  serve::Server& server = *st->server;
  auto counter = [&](const char* name) {
    return server.metrics().counter(name).value();
  };
  const char* names[] = {"serve_passes_total", "serve_pass_rows_total",
                         "serve_int8_passes_total", "serve_macs_total",
                         "serve_stream_cache_hits_total",
                         "serve_stream_cache_misses_total",
                         "serve_stream_cold_total"};
  std::map<std::string, std::uint64_t> before;
  for (const char* n : names) before[n] = counter(n);
  std::vector<stepping::obs::Histogram::Snapshot> plan0;
  for (int l = 1; l <= kLevels; ++l) {
    plan0.push_back(server.metrics()
                        .histogram("serve_plan_error_ratio_subnet_" + std::to_string(l))
                        .snapshot());
  }

  const References refs(*st);
  const PhaseStats ps = run_phase(*st, refs, kProbeSeconds, &tr);
  rep.attempted(ps.attempted);
  rep.failed(ps.refused + ps.mismatched, "probe phase failures");
  auto delta = [&](const char* n) {
    return static_cast<double>(counter(n) - before[n]);
  };

  const double completed = static_cast<double>(ps.completed);
  rep.metric("serve.queue_ms.p50", median(ps.queue_ms.values()), "ms");
  rep.metric("serve.pass_occupancy",
             delta("serve_pass_rows_total") / delta("serve_passes_total"), "rows");
  for (int l = 1; l <= kLevels; ++l) {
    const std::string L = level_tag(l);
    rep.metric("serve.exit_share." + L,
               static_cast<double>(ps.exits[static_cast<std::size_t>(l - 1)]) / completed,
               "ratio");
    const auto& h = server.metrics().histogram("serve_plan_error_ratio_subnet_" +
                                               std::to_string(l));
    const auto& base = plan0[static_cast<std::size_t>(l - 1)];
    rep.metric("serve.plan_error." + L,
               h.count_since(base) ? h.quantile_since(base, 0.5) : 0.0, "ratio");
  }
  rep.metric("serve.int8_passes", delta("serve_int8_passes_total"), "count");
  const double mac_gap =
      static_cast<double>(ps.result_macs) - delta("serve_macs_total");
  rep.metric("serve.mac_gap", mac_gap, "count");
  rep.metric("serve.deadline_hit_rate", hit_rate(ps), "ratio");
  rep.metric("serve.mean_exit_level", mean_exit_level(ps), "level");
  const double hits = delta("serve_stream_cache_hits_total");
  const double misses = delta("serve_stream_cache_misses_total");
  rep.metric("stream.cold_frames", delta("serve_stream_cold_total"), "count");
  rep.metric("stream.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  const double drops = static_cast<double>(server.flight().ring_dropped() +
                                           server.flight().events_dropped());
  rep.metric("obs.flight_drops", drops, "count");
  rep.require(drops == 0, "obs.flight_drops == 0");
  server.shutdown();
  rep.metric("quant.packs",
             static_cast<double>(global_counter("stepping_quant_packs_total") - q0),
             "count");

  // The planner's constants next to a fresh fit on this host; the
  // serve.plan_error.L* ratios show how far served passes are from them.
  const stepping::DeviceModel used = planner_device();
  const stepping::DeviceModel fit = fit_planner_device(st->ref, st->images);
  std::printf("planner device: fixed_overhead_ms %.4f, macs_per_second %.4g; "
              "fit on this host: fixed_overhead_ms %.4f, macs_per_second %.4g\n",
              used.fixed_overhead_ms, used.macs_per_second, fit.fixed_overhead_ms,
              fit.macs_per_second);

  // quant: a batch of four through Network::forward at int8 and at fp32 for
  // every level, and the calibration pass the server runs at start-up.
  Network& net = st->ref;
  Tensor batch({4, 3, 32, 32}), calib({kImages, 3, 32, 32});
  const std::size_t img = 3 * 32 * 32;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kImages); ++i) {
    std::memcpy(calib.data() + i * img, st->images[i].data(), img * sizeof(float));
    if (i < 4) std::memcpy(batch.data() + i * img, st->images[i].data(), img * sizeof(float));
  }
  std::shared_ptr<stepping::quant::CalibrationTable> table;
  {
    Scope sc(tr, "quant.calibrate_int8");
    const auto t0 = Clock::now();
    table = stepping::calibrate_int8(net, calib, 16, kLevels);
    rep.metric("quant.calibrate_s", ms_between(t0, Clock::now()) / 1e3, "s");
  }
  for (int l = 1; l <= kLevels; ++l) {
    for (const bool int8 : {true, false}) {
      stepping::SubnetContext ctx;
      ctx.subnet_id = l;
      if (int8) {
        ctx.precision = stepping::quant::Precision::kInt8;
        ctx.calibration = table.get();
      }
      std::vector<double> v;
      for (int r = 0; r < 30; ++r) {
        Scope sc(tr, std::string(int8 ? "quant.int8_forward.L" : "quant.fp32_forward.L") +
                         std::to_string(l));
        const auto t0 = Clock::now();
        net.forward(batch, ctx);
        v.push_back(ms_between(t0, Clock::now()));
      }
      rep.metric(std::string(int8 ? "quant.int8_ms.L" : "quant.fp32_ms.L") +
                     std::to_string(l),
                 median(v), "ms");
    }
  }

  // stream: one stream's frames replayed through tile_fingerprints and
  // stream_delta_forward at the top level.
  stepping::stream::StreamConfig scfg;
  scfg.enabled = true;
  const auto sig = stepping::stream::network_signature(net);
  stepping::stream::StreamState sst;
  std::vector<double> frame_ms, fp_ms;
  double dirty = 0, tiles = 0, macs = 0, full = 0;
  std::vector<std::uint64_t> grid;
  for (int f = 0; f < 200; ++f) {
    const Tensor x = scene_frame(st->bases.front(), f);
    {
      Scope sc(tr, "stream.tile_fingerprints", f);
      const auto t0 = Clock::now();
      stepping::stream::tile_fingerprints(x, scfg.tile, grid);
      fp_ms.push_back(ms_between(t0, Clock::now()));
    }
    Scope sc(tr, "stream.delta_forward", f);
    const auto t0 = Clock::now();
    std::lock_guard<std::mutex> lock(sst.mu);
    const auto r = stepping::stream::stream_delta_forward(net, sst, x, kLevels, scfg, sig);
    frame_ms.push_back(ms_between(t0, Clock::now()));
    if (!r.cold) {
      dirty += r.dirty_tiles;
      tiles += r.total_tiles;
      macs += static_cast<double>(r.macs);
      full += static_cast<double>(r.full_macs);
    }
  }
  rep.metric("stream.frame_ms.p50", median(frame_ms), "ms");
  rep.metric("stream.fingerprint_ms", median(fp_ms), "ms");
  rep.metric("stream.dirty_tile_share", dirty / tiles, "ratio");
  rep.metric("stream.macs_saved_share", 1.0 - macs / full, "ratio");
}

}  // namespace perfbench
