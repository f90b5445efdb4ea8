// ladder_lenet: one caller, a kernel pool of one, one image at a time
// climbing 0 -> 1 -> 2 -> 3 -> 4 through ladder_step with exact reuse on
// LeNet-3C1L sized by Table I (the model serve_mixed serves). Conv GEMM,
// im2col and per-step fixed costs in tensor, nn and core do nearly all the
// work.
//
// The paper's largest network, VGG-16, is measured layer by layer in every
// traced run (probe_ladder_layers) but is not a timed workload: its climb
// streams weights that other tenants of the host contend for, and over ten
// 30 s runs its p90 climb time spread 21-41 % (IQR) while serve_mixed, on
// LeNet-3C1L, spread 3-6 % in the same set.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "core/incremental.h"
#include "core/macs.h"
#include "nn/conv2d.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using stepping::Network;
using stepping::Tensor;

constexpr int kLevels = 4;
constexpr double kLenetWidth = 0.5;  ///< as in serve_mixed
constexpr int kImages = 32;        ///< distinct inputs, cycled
constexpr int kWarmupClimbs = 3;   ///< fills the packed-weight cache
constexpr int kSetups = 15;        ///< set-ups per run (~40 ms each); the median is reported
constexpr int kCheckedImages = 6;  ///< images re-checked against forward()
constexpr int kProbeReps = 21;     ///< repetitions of each per-layer probe

struct LadderState {
  Network net;
  std::int64_t ref_macs = 0;
  std::vector<Tensor> images;
  std::vector<Tensor> outs;  ///< ladder_step's per-layer state
};

/// One climb; returns level-l logits in `logits[l-1]` and stamps the time
/// each level finished.
void climb(LadderState& st, const Tensor& x, Tensor* logits,
           Clock::time_point* done, Tracer* tr, std::int64_t item) {
  for (int l = 1; l <= kLevels; ++l) {
    const int span = tr ? tr->begin("core.ladder_step.L" + std::to_string(l), item) : -1;
    logits[l - 1] = stepping::ladder_step(st.net, x, st.outs, l - 1, l);
    if (tr) tr->end(span);
    done[l - 1] = Clock::now();
  }
}

std::unique_ptr<LadderState> setup_ladder(const TableOneSpec& spec,
                                          std::uint64_t seed) {
  auto st = std::make_unique<LadderState>();
  st->net = build_table_one(spec, &st->ref_macs);
  st->images = random_images(kImages, seed);
  Tensor logits[kLevels];
  Clock::time_point done[kLevels];
  for (int i = 0; i < kWarmupClimbs; ++i) {
    climb(*st, st->images[static_cast<std::size_t>(i)], logits, done, nullptr, -1);
  }
  return st;
}

struct ClimbStats {
  SampleRing first_ms, final_ms;
  std::uint64_t climbs = 0;
  double seconds = 0.0;  ///< wall time of the climbs
  std::uint64_t mismatched = 0;
};

/// Climbs for `seconds`, keeping the logits of the first kCheckedImages
/// inputs' latest climb, then re-checks them against from-scratch forwards.
ClimbStats timed_climbs(LadderState& st, double seconds, Tracer* tr) {
  ClimbStats cs;
  std::vector<std::vector<Tensor>> kept(kCheckedImages,
                                        std::vector<Tensor>(kLevels));
  Tensor logits[kLevels];
  Clock::time_point done[kLevels];
  const auto t0 = Clock::now();
  for (std::size_t k = 0; ms_between(t0, Clock::now()) < seconds * 1e3; ++k) {
    const std::size_t img = k % st.images.size();
    const int span = tr ? tr->begin("core.climb", static_cast<std::int64_t>(k)) : -1;
    const auto start = Clock::now();
    climb(st, st.images[img], logits, done, tr, static_cast<std::int64_t>(k));
    if (tr) tr->end(span);
    cs.first_ms.push(ms_between(start, done[0]));
    cs.final_ms.push(ms_between(start, done[kLevels - 1]));
    if (img < kCheckedImages) {
      for (int l = 0; l < kLevels; ++l) kept[img][static_cast<std::size_t>(l)] = logits[l];
    }
    ++cs.climbs;
  }
  cs.seconds = ms_between(t0, Clock::now()) / 1e3;
  for (std::size_t img = 0; img < kCheckedImages && img < cs.climbs; ++img) {
    for (int l = 1; l <= kLevels; ++l) {
      if (!same_bits(kept[img][static_cast<std::size_t>(l - 1)],
                     forward_at(st.net, st.images[img], l))) {
        ++cs.mismatched;
        break;
      }
    }
  }
  return cs;
}

void count_climbs(const ClimbStats& cs, Report& rep) {
  rep.attempted(cs.climbs);
  rep.failed(cs.mismatched, "ladder_step logits differ from forward()");
}

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(ms_between(t0, Clock::now()));
  }
  return median(v);
}

/// The owning block of every layer: the latest masked layer at or before it
/// (c1..c13, fc), so BN, ReLU, pooling and flatten count with their conv.
/// VGG-16 starts with a conv, so every layer has one.
std::vector<std::string> block_of_layers(Network& net) {
  std::vector<std::string> out;
  std::string cur;
  for (const auto& layer : net.layers()) {
    if (dynamic_cast<stepping::MaskedLayer*>(layer.get())) cur = layer->name();
    out.push_back(cur);
  }
  return out;
}

}  // namespace

void run_ladder_lenet(const Args& args, Tracer& tr, Report& rep) {
  stepping::ThreadPool::set_global_threads(1);
  print_run_record(args, 1, 1);
  std::unique_ptr<LadderState> st;
  const double setup_s = timed_setups(
      kSetups, st, [&] { return setup_ladder(lenet_spec(kLenetWidth), args.seed); });

  const std::uint64_t grows0 = global_counter("stepping_arena_grows_total");
  const ClimbStats cs = timed_climbs(*st, args.seconds, nullptr);
  const double rss_mb = peak_rss_mb();
  std::printf("ladder_lenet: %llu climbs, arena grows in timed phase %llu\n",
              static_cast<unsigned long long>(cs.climbs),
              static_cast<unsigned long long>(
                  global_counter("stepping_arena_grows_total") - grows0));
  count_climbs(cs, rep);
  if (!args.trace) {
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", rss_mb, "MiB");
    report_timings(rep, cs.first_ms.values(), cs.final_ms.values(), cs.climbs, cs.seconds);
    return;
  }
  // Traced run: the same timed phase again with spans on; the difference of
  // the two is the tracing overhead.
  const SharedCounters counters;
  const ClimbStats traced = timed_climbs(*st, args.seconds, &tr);
  counters.report(rep);
  print_trace_overhead(cs.first_ms.values(), cs.final_ms.values(), traced.first_ms.values(),
                       traced.final_ms.values());
  count_climbs(traced, rep);
}

void probe_ladder_layers(const Args& args, Tracer& tr, Report& rep) {
  stepping::ThreadPool::set_global_threads(1);
  const TableOneSpec spec = vgg16_spec();
  std::unique_ptr<LadderState> st = setup_ladder(spec, args.seed);
  Network& net = st->net;
  const auto& layers = net.layers();
  const std::vector<std::string> block = block_of_layers(net);
  const Tensor& x = st->images.front();

  // Each rep climbs once through ladder_step and once walked layer by layer
  // in ladder_step's order, each layer's forward / forward_step timed and
  // charged to its block. The two run back to back, so both see the same
  // host contention and their ratio is compared per pair.
  std::vector<std::vector<double>> step_ms(kLevels);
  std::map<std::string, std::vector<double>> block_ms;
  std::vector<double> walk_over_ladder;
  std::vector<Tensor> outs(layers.size());
  Tensor ladder_logits[kLevels];
  Clock::time_point done[kLevels];
  bool walk_matches = true;
  for (int r = 0; r < kProbeReps; ++r) {
    const auto start = Clock::now();
    climb(*st, x, ladder_logits, done, &tr, r);
    for (int l = 0; l < kLevels; ++l) {
      step_ms[static_cast<std::size_t>(l)].push_back(
          ms_between(l == 0 ? start : done[l - 1], done[l]));
    }
    const double ladder_total = ms_between(start, done[kLevels - 1]);
    std::map<std::string, double> this_climb;
    double walk_total = 0.0;
    for (int l = 1; l <= kLevels; ++l) {
      stepping::SubnetContext ctx;
      ctx.subnet_id = l;
      Tensor cur = x;
      for (std::size_t i = 0; i < layers.size(); ++i) {
        const int span = tr.begin("nn." + block[i] + ".L" + std::to_string(l), r);
        const auto t0 = Clock::now();
        Tensor out = l == 1 ? layers[i]->forward(cur, ctx)
                            : layers[i]->forward_step(cur, outs[i], l - 1, ctx);
        const double ms = ms_between(t0, Clock::now());
        tr.end(span);
        this_climb[block[i]] += ms;
        walk_total += ms;
        outs[i] = out;
        cur = std::move(out);
      }
      walk_matches = walk_matches && same_bits(cur, ladder_logits[l - 1]);
    }
    for (const auto& [b, ms] : this_climb) block_ms[b].push_back(ms);
    walk_over_ladder.push_back(walk_total / ladder_total);
  }
  rep.require(walk_matches, "layer walk logits memcmp-equal to ladder_step's");
  const double tol = 0.15;
  const double ratio = median(walk_over_ladder);
  std::printf("sum of nn.*.step_ms / sum of core.step_ms.L*: median %.4f over %d pairs\n",
              ratio, kProbeReps);
  rep.require(ratio > 1 - tol && ratio < 1 + tol,
              "sum of nn.*.step_ms within 15% of sum of core.step_ms.L*");

  // core: each level from scratch through Network::forward, against the
  // unexpanded reference network's forward.
  double ladder_total_ms = 0.0;
  double scratch[kLevels] = {};
  stepping::Network ref = build_reference(spec);
  const double ref_ms = median_ms(kProbeReps, [&] {
    Scope s(tr, "core.reference_forward");
    forward_at(ref, x, 1);
  });
  for (int l = 1; l <= kLevels; ++l) {
    const std::string L = level_tag(l);
    const double ms = median(step_ms[static_cast<std::size_t>(l - 1)]);
    const std::int64_t macs = stepping::ladder_step_macs(net, l - 1, l);
    scratch[l - 1] = median_ms(kProbeReps, [&] {
      Scope s(tr, "core.scratch_forward." + L);
      forward_at(net, x, l);
    });
    ladder_total_ms += ms;
    rep.metric("core.step_ms." + L, ms, "ms");
    rep.metric("core.step_macs." + L, static_cast<double>(macs), "count");
    rep.metric("core.step_gmacs." + L, static_cast<double>(macs) / ms / 1e6, "GMAC/s");
    rep.metric("core.scratch_ms." + L, scratch[l - 1], "ms");
    rep.metric("core.latency_ratio." + L, scratch[l - 1] / ref_ms, "ratio");
    rep.metric("core.mac_ratio." + L,
               static_cast<double>(stepping::subnet_macs(net, l)) /
                   static_cast<double>(st->ref_macs),
               "ratio");
  }

  // Per-block MACs over the whole climb, from the analytic step counts.
  // A body layer computes each level-4 weight once per climb; the head is
  // recomputed at every level.
  std::map<std::string, std::int64_t> block_macs, block_l4_macs;
  std::int64_t l4_total = 0;
  for (stepping::MaskedLayer* m : net.masked_layers()) {
    block_l4_macs[m->name()] = m->subnet_macs(kLevels);
    l4_total += m->subnet_macs(kLevels);
    std::int64_t climb_macs = m->subnet_macs(kLevels);
    if (m->is_head()) {
      climb_macs = 0;
      for (int l = 1; l <= kLevels; ++l) climb_macs += m->subnet_macs(l);
    }
    block_macs[m->name()] = climb_macs;
  }
  double walk_sum = 0.0;
  for (const auto& [b, v] : block_ms) {
    const double ms = median(v);
    walk_sum += ms;
    rep.metric("nn." + b + ".step_ms", ms, "ms");
    rep.metric("nn." + b + ".gmacs",
               static_cast<double>(block_macs[b]) / ms / 1e6, "GMAC/s");
  }

  // tensor: im2col and the conv GEMM replayed on each conv's geometry and
  // weights, with the climb's level-4 activations as input; summed per VGG
  // stage (stages end at the pooling layers p1..p5).
  std::vector<double> im2col_ms(5), gemm_ms(5), gemm_flops(5);
  int stage = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i]->name().size() == 2 && layers[i]->name()[0] == 'p') ++stage;
    auto* conv = dynamic_cast<stepping::Conv2d*>(layers[i].get());
    if (conv == nullptr) continue;
    const stepping::Conv2dGeometry& g = conv->geometry();
    const Tensor& in = i == 0 ? x : outs[i - 1];
    const int m = conv->num_units(), k = g.patch(), n = g.out_h() * g.out_w();
    std::vector<float> cols(static_cast<std::size_t>(k) * n);
    std::vector<float> out(static_cast<std::size_t>(m) * n);
    std::vector<unsigned char> active(static_cast<std::size_t>(m));
    int rows = 0;
    for (int u = 0; u < m; ++u) {
      active[static_cast<std::size_t>(u)] =
          conv->unit_subnet()[static_cast<std::size_t>(u)] <= kLevels;
      rows += active[static_cast<std::size_t>(u)];
    }
    const std::string name = conv->name();
    im2col_ms[static_cast<std::size_t>(stage)] += median_ms(kProbeReps, [&] {
      Scope s(tr, "tensor.im2col." + name);
      stepping::im2col(in.data(), g, cols.data());
    });
    const double gm = median_ms(kProbeReps, [&] {
      Scope s(tr, "tensor.gemm_rows_bias." + name);
      std::fill(out.begin(), out.end(), 0.0f);
      stepping::gemm_rows_bias(conv->weight().value.data(), cols.data(), out.data(),
                               m, k, n, active.data(),
                               conv->bias().value.data(), true);
    });
    gemm_ms[static_cast<std::size_t>(stage)] += gm;
    gemm_flops[static_cast<std::size_t>(stage)] += 2.0 * rows * k * n;
  }
  for (int s = 0; s < 5; ++s) {
    const std::string S = "s" + std::to_string(s + 1);
    const auto si = static_cast<std::size_t>(s);
    rep.metric("tensor.im2col_ms." + S, im2col_ms[si], "ms");
    rep.metric("tensor.gemm_ms." + S, gemm_ms[si], "ms");
    rep.metric("tensor.gemm_gflops." + S, gemm_flops[si] / gemm_ms[si] / 1e6,
               "GFLOP/s");
  }

  // Paper tie-in: Table I sizes subnets by MACs and assumes MACs track
  // latency. Measured latency ratios next to the MAC ratios, and each
  // layer's share of ladder time next to its share of level-4 MACs.
  std::printf("\npaper tie-in (VGG-16, width %.2f, expansion %.1f):\n",
              spec.width, spec.expansion);
  std::printf("  level  TableI P_i/M_t  analytic M_i/M_t  measured T_i/T_ref\n");
  for (int l = 1; l <= kLevels; ++l) {
    std::printf("  L%d     %14.3f  %16.3f  %18.3f\n", l,
                spec.budgets[static_cast<std::size_t>(l - 1)],
                static_cast<double>(stepping::subnet_macs(net, l)) /
                    static_cast<double>(st->ref_macs),
                scratch[l - 1] / ref_ms);
  }
  std::printf("  layer  share of ladder time  share of level-4 MACs\n");
  for (stepping::MaskedLayer* m : net.masked_layers()) {
    std::printf("  %-5s  %20.3f  %21.3f\n", m->name().c_str(),
                median(block_ms[m->name()]) / walk_sum,
                static_cast<double>(block_l4_macs[m->name()]) /
                    static_cast<double>(l4_total));
  }
  std::printf("  walk total %.3f ms vs ladder_step total %.3f ms (medians)\n\n",
              walk_sum, ladder_total_ms);
}

}  // namespace perfbench
