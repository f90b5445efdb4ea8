// Micro-benchmarks (google-benchmark) for the numerical substrate: GEMM
// kernels, im2col convolution, masked-forward overhead, and incremental
// step cost. These quantify the design decisions in DESIGN.md §6.
//
// Before the google-benchmark suite runs, main() executes a GEMM shape
// sweep over the paper's layer shapes comparing the blocked dispatch path
// against the reference kernels: each shape line reports ns/op and GFLOP/s
// for both paths, the blocked/ref speedup, and a bitwise=ok / MISMATCH
// verdict (CI greps for these). The verdict memcmps the blocked route
// against the dispatcher's fallback route, which is tier-correct at every
// STEPPING_ISA level; rows carry an "isa" field naming the active tier.
// The sweep is also written machine-readably to BENCH_gemm.json in the
// working directory. STEPPING_BENCH_REPS overrides the per-shape rep count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/any_width.h"
#include "core/incremental.h"
#include "core/macs.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "quant/quantize.h"
#include "tensor/gemm_isa.h"
#include "tensor/gemm_kernel.h"
#include "tensor/i8gemm.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  fill_normal(a, 0.0f, 1.0f, rng);
  fill_normal(b, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmRowsHalfActive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Tensor a({n, n}), b({n, n}), c({n, n});
  fill_normal(a, 0.0f, 1.0f, rng);
  fill_normal(b, 0.0f, 1.0f, rng);
  std::vector<unsigned char> active(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) active[static_cast<std::size_t>(i)] = i % 2;
  for (auto _ : state) {
    c.zero();
    gemm_rows(a, b, c, active.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n * n / 2);
}
BENCHMARK(BM_GemmRowsHalfActive)->Arg(64)->Arg(128);

void BM_Im2col(benchmark::State& state) {
  Conv2dGeometry g{16, 32, 32, 32, 3, 1, 1};
  Rng rng(3);
  Tensor x({g.in_c, g.in_h, g.in_w});
  fill_normal(x, 0.0f, 1.0f, rng);
  Tensor cols({g.patch(), g.out_h() * g.out_w()});
  for (auto _ : state) {
    im2col(x.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

void BM_ConvForward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Conv2d conv("c", c, 3);
  Rng rng(4);
  IOSpec spec;
  spec.units = c;
  spec.h = 16;
  spec.w = 16;
  spec.assignment = std::make_shared<Assignment>(static_cast<std::size_t>(c), 1);
  conv.wire(spec, rng);
  Tensor x({4, c, 16, 16});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  for (auto _ : state) {
    Tensor y = conv.forward(x, ctx);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(32);

/// Overhead of subnet masking: full network vs subnet-1 (10% MACs) forward.
void BM_SubnetForward(benchmark::State& state) {
  ModelConfig mc{.classes = 10, .expansion = 1.8, .width_mult = 0.5};
  static Network net = build_lenet3c1l(mc);
  static bool configured = [] {
    const std::int64_t full = full_macs(net);
    std::vector<std::int64_t> budgets;
    for (const double f : {0.1, 0.3, 0.5, 0.85}) {
      budgets.push_back(static_cast<std::int64_t>(f * 0.5 * full));
    }
    assign_prefix_subnets(net, solve_prefix_fractions(net, budgets));
    return true;
  }();
  (void)configured;
  Rng rng(5);
  Tensor x({4, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.subnet_id = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Tensor y = net.forward(x, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel("macs=" + std::to_string(subnet_macs(net, ctx.subnet_id)));
}
BENCHMARK(BM_SubnetForward)->Arg(1)->Arg(2)->Arg(4);

/// Incremental step 3->4 vs from-scratch subnet-4 evaluation.
void BM_IncrementalStep(benchmark::State& state) {
  static Network net = [] {
    const ModelConfig mc{.classes = 10, .expansion = 1.8, .width_mult = 0.5};
    Network n = build_lenet3c1l(mc);
    const std::int64_t full = full_macs(n);
    std::vector<std::int64_t> budgets;
    for (const double f : {0.1, 0.3, 0.5, 0.85}) {
      budgets.push_back(static_cast<std::int64_t>(f * 0.5 * full));
    }
    assign_prefix_subnets(n, solve_prefix_fractions(n, budgets));
    return n;
  }();
  Rng rng(6);
  Tensor x({4, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  IncrementalExecutor ex(net);
  const bool incremental = state.range(0) == 1;
  for (auto _ : state) {
    if (incremental) {
      ex.reset();
      ex.run(x, 3);
      Tensor y = ex.run(x, 4);
      benchmark::DoNotOptimize(y.data());
    } else {
      SubnetContext ctx;
      ctx.subnet_id = 4;
      Tensor y3;
      {
        SubnetContext c3;
        c3.subnet_id = 3;
        y3 = net.forward(x, c3);  // pay for level 3 ...
      }
      Tensor y = net.forward(x, ctx);  // ... then restart level 4
      benchmark::DoNotOptimize(y.data());
      benchmark::DoNotOptimize(y3.data());
    }
  }
  state.SetLabel(incremental ? "3-then-step-to-4" : "3-then-scratch-4");
}
BENCHMARK(BM_IncrementalStep)->Arg(1)->Arg(0);

// ---------------------------------------------------------------------------
// Blocked-vs-reference GEMM sweep (ISSUE 4 acceptance: >= 1.4x at 1 thread
// on 128x400x1024, bitwise parity everywhere).
// ---------------------------------------------------------------------------

double median_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    t[static_cast<std::size_t>(r)] =
        std::chrono::duration<double>(t1 - t0).count();
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

struct SweepRow {
  int m, k, n, threads;
  double ref_ns, blocked_ns, speedup, blocked_gflops;
  bool bitwise;
};

/// One shape at the current thread count: median-time ref and blocked gemm,
/// memcmp outputs. Shapes come from the paper models' im2col lowerings
/// (LeNet/VGG-ish layers; see ROADMAP).
SweepRow sweep_shape(int m, int k, int n, int threads, int reps) {
  Rng rng(42);
  Tensor a({m, k}), b({k, n}), c_ref({m, n}), c_blk({m, n});
  fill_normal(a, 0.0f, 1.0f, rng);
  fill_normal(b, 0.0f, 1.0f, rng);
  // ~20% exact zeros in A, like masked subnet weights (exercises the
  // zero-skip on both paths identically).
  float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); i += 5) pa[i] = 0.0f;

  // Bitwise verdict: the blocked route against the dispatcher's small-shape
  // fallback route — the within-tier routing invariant that holds at EVERY
  // ISA tier. On scalar/sse the fallback aliases the reference kernels, so
  // there this is exactly the historical vs-ref check.
  Tensor c_fb({m, n});
  const GemmBlocking ambient = gemm_blocking();
  GemmBlocking fb_cfg;
  fb_cfg.force_ref = true;
  set_gemm_blocking(fb_cfg);
  gemm(a, b, c_fb);
  set_gemm_blocking(ambient);
  gemm_ref(a, b, c_ref);  // warm
  gemm(a, b, c_blk);
  const bool bitwise =
      std::memcmp(c_fb.data(), c_blk.data(),
                  sizeof(float) * static_cast<std::size_t>(c_fb.numel())) == 0;

  const double ref_s = median_seconds(reps, [&] { gemm_ref(a, b, c_ref); });
  const double blk_s = median_seconds(reps, [&] { gemm(a, b, c_blk); });
  const double flop = 2.0 * m * k * n;
  SweepRow row;
  row.m = m;
  row.k = k;
  row.n = n;
  row.threads = threads;
  row.ref_ns = ref_s * 1e9;
  row.blocked_ns = blk_s * 1e9;
  row.speedup = ref_s / blk_s;
  row.blocked_gflops = flop / blk_s * 1e-9;
  row.bitwise = bitwise;
  return row;
}

void run_gemm_sweep() {
  const struct { int m, k, n; } shapes[] = {
      {128, 400, 1024},  // lenet3c1l dense head, batch 128 (acceptance shape)
      {64, 27, 1024},    // conv1 3x3x3 -> 64 units over 32x32 output
      {128, 576, 256},   // mid conv, 64ch 3x3 patch
      {256, 1152, 64},   // late conv, 128ch 3x3 patch, small spatial
      {10, 512, 128},    // classifier tail
      {65, 129, 33},     // odd non-multiple-of-tile shape
  };
  int reps = 7;
  if (const char* e = std::getenv("STEPPING_BENCH_REPS")) {
    reps = std::max(1, std::atoi(e));
  }
  std::vector<int> thread_counts = {1};
  if (ThreadPool::default_threads() != 1) {
    thread_counts.push_back(ThreadPool::default_threads());
  }

  std::vector<SweepRow> rows;
  // CI's isa-matrix job greps this line to confirm the tier pin took hold.
  std::printf("gemm sweep isa=%s host_max=%s\n", isa_tier_name(isa_tier()),
              isa_tier_name(detected_isa_tier()));
  std::printf("GEMM sweep: blocked dispatch vs reference (reps=%d)\n", reps);
  for (const int t : thread_counts) {
    ThreadPool::set_global_threads(t);
    for (const auto& s : shapes) {
      const SweepRow row = sweep_shape(s.m, s.k, s.n, t, reps);
      rows.push_back(row);
      std::printf(
          "gemm m=%d k=%d n=%d threads=%d ref=%.0fns blocked=%.0fns "
          "speedup=%.2fx gflops=%.2f %s\n",
          row.m, row.k, row.n, row.threads, row.ref_ns, row.blocked_ns,
          row.speedup, row.blocked_gflops,
          row.bitwise ? "bitwise=ok" : "bitwise=MISMATCH");
    }
  }
  ThreadPool::set_global_threads(ThreadPool::default_threads());

  if (std::FILE* f = std::fopen("BENCH_gemm.json", "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      std::fprintf(f,
                   "  {\"isa\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, "
                   "\"threads\": %d, "
                   "\"ref_ns\": %.1f, \"blocked_ns\": %.1f, "
                   "\"speedup\": %.3f, \"blocked_gflops\": %.3f, "
                   "\"bitwise\": %s}%s\n",
                   isa_tier_name(isa_tier()), r.m, r.k, r.n, r.threads,
                   r.ref_ns, r.blocked_ns, r.speedup,
                   r.blocked_gflops, r.bitwise ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote BENCH_gemm.json (%zu rows)\n", rows.size());
  }
}

// ---------------------------------------------------------------------------
// Int8 GEMM sweep (ISSUE 7 acceptance: the int8 path beats the fp32 blocked
// path on the paper deep-k shapes; every provider's i32 accumulators are
// bit-identical to the scalar reference).
//
// The timed int8 path is quantize activations + u8 x i8 GEMM + fp32
// dequant. Its weights are quantized and packed once, outside the timing;
// the fp32 side's gemm packs B inside it, as every fp32 call does.
// ---------------------------------------------------------------------------

struct I8Row {
  int m, k, n;
  double fp32_ns, int8_ns, speedup, int8_gops;
  bool parity;
};

I8Row i8_shape(int m, int k, int n, int reps) {
  Rng rng(44);
  // Generate Wt (n x k, the Dense/Conv2d layout) and derive the fp32 GEMM's
  // B = Wt^T so both paths compute the same m x k x n contraction.
  Tensor a({m, k}), wt({n, k}), b({k, n}), c_fp({m, n});
  fill_normal(a, 0.0f, 1.0f, rng);
  fill_normal(wt, 0.0f, 1.0f, rng);
  // Post-ReLU-like activations (the int8 layers' serving case): non-negative,
  // with the same ~20% exact zeros as the fp32 sweep.
  float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] = pa[i] < 0 ? -pa[i] : pa[i];
  for (std::int64_t i = 0; i < a.numel(); i += 5) pa[i] = 0.0f;
  const float* pw = wt.data();
  float* pb = b.data();
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) pb[i * n + j] = pw[j * k + i];
  }

  const double fp_s = median_seconds(reps, [&] { gemm(a, b, c_fp); });

  quant::WeightQuant wq;
  quant::quantize_weights_per_channel(wt.data(), n, k, &wq);
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) absmax = std::max(absmax, pa[i]);
  const quant::ActQuant aq = quant::activation_params(absmax, /*nonneg=*/true);
  const int k4 = i8gemm_k4(k);

  const I8GemmKernel& kern = i8gemm_kernel();
  const I8GemmKernel& ref = i8gemm_ref_kernel();
  std::vector<std::int8_t> packed(i8gemm_packed_bytes(k, n, kern.nr));
  std::vector<std::int8_t> packed_ref(i8gemm_packed_bytes(k, n, ref.nr));
  i8gemm_pack(wq.q.data(), k, n, kern.nr, packed.data());
  i8gemm_pack(wq.q.data(), k, n, ref.nr, packed_ref.data());

  std::vector<std::uint8_t> a8(static_cast<std::size_t>(m) * k4);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(m) * n);
  std::vector<std::int32_t> acc_ref(static_cast<std::size_t>(m) * n);
  quant::quantize_activations(a.data(), m, k, k4, aq, a8.data());
  i8gemm_run(kern, a8.data(), m, k, packed.data(), n, acc.data());
  i8gemm_run(ref, a8.data(), m, k, packed_ref.data(), n, acc_ref.data());
  const bool parity =
      std::memcmp(acc.data(), acc_ref.data(),
                  sizeof(std::int32_t) * acc.size()) == 0;

  std::vector<float> bias(static_cast<std::size_t>(n), 0.0f);
  std::vector<std::int32_t> units(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) units[static_cast<std::size_t>(j)] = j;
  Tensor y({m, n});
  const double i8_s = median_seconds(reps, [&] {
    quant::quantize_activations(a.data(), m, k, k4, aq, a8.data());
    i8gemm_run(kern, a8.data(), m, k, packed.data(), n, acc.data());
    quant::dequantize_bias(acc.data(), m, n, aq, wq.scale.data(),
                           wq.wsum.data(), units.data(), bias.data(),
                           /*relu=*/false, /*spatial=*/1, n, y.data());
  });

  I8Row row;
  row.m = m;
  row.k = k;
  row.n = n;
  row.fp32_ns = fp_s * 1e9;
  row.int8_ns = i8_s * 1e9;
  row.speedup = fp_s / i8_s;
  row.int8_gops = 2.0 * m * k * n / i8_s * 1e-9;
  row.parity = parity;
  return row;
}

void run_i8_sweep() {
  const struct { int m, k, n; } shapes[] = {
      {128, 400, 1024},  // lenet3c1l dense head, batch 128
      {64, 27, 1024},    // conv1 3x3x3 -> 64 units over 32x32 output
      {128, 576, 256},   // mid conv, 64ch 3x3 patch
      {256, 1152, 64},   // late conv, 128ch 3x3 patch (deep-k serving shape)
      {10, 512, 128},    // classifier tail
      {65, 129, 33},     // odd non-multiple-of-panel shape
  };
  int reps = 7;
  if (const char* e = std::getenv("STEPPING_BENCH_REPS")) {
    reps = std::max(1, std::atoi(e));
  }
  const I8GemmKernel& kern = i8gemm_kernel();
  // CI's isa-matrix job greps this line (provider must match the tier pin).
  std::printf("i8 sweep isa=%s provider=%s (reps=%d)\n",
              isa_tier_name(isa_tier()), kern.name, reps);
  std::vector<I8Row> rows;
  bool all_parity = true;
  for (const auto& s : shapes) {
    const I8Row row = i8_shape(s.m, s.k, s.n, reps);
    rows.push_back(row);
    all_parity = all_parity && row.parity;
    std::printf(
        "i8 m=%d k=%d n=%d fp32=%.0fns int8=%.0fns speedup=%.2fx gops=%.2f "
        "%s\n",
        row.m, row.k, row.n, row.fp32_ns, row.int8_ns, row.speedup,
        row.int8_gops, row.parity ? "acc=ok" : "acc=MISMATCH");
  }
  // CI greps this exact line: scalar vs active provider accumulator parity.
  std::printf("i8 parity=%s\n", all_parity ? "ok" : "MISMATCH");

  if (std::FILE* f = std::fopen("BENCH_int8.json", "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const I8Row& r = rows[i];
      std::fprintf(f,
                   "  {\"isa\": \"%s\", \"provider\": \"%s\", \"m\": %d, "
                   "\"k\": %d, \"n\": %d, \"fp32_ns\": %.1f, "
                   "\"int8_ns\": %.1f, \"speedup\": %.3f, "
                   "\"int8_gops\": %.3f, \"parity\": %s}%s\n",
                   isa_tier_name(isa_tier()), kern.name, r.m, r.k, r.n,
                   r.fp32_ns, r.int8_ns, r.speedup, r.int8_gops,
                   r.parity ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote BENCH_int8.json (%zu rows)\n", rows.size());
  }
}

}  // namespace
}  // namespace stepping

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  stepping::run_gemm_sweep();
  stepping::run_i8_sweep();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
