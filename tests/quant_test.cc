// Int8 quantization subsystem (ISSUE 7).
//
// Enforcement arms:
//  * QuantRounding / QuantWeights / QuantActivations: the documented
//    numeric semantics of the quantization core — saturation at +/-127
//    (never -128), round-half-to-even ties, zero-range channels degrading
//    to bias-only outputs, per-channel == per-tensor on single-channel
//    layers, and exact zero-point mapping of 0.0f inputs.
//  * QuantProviderParity: every int8 GEMM provider this binary + host can
//    run produces BIT-IDENTICAL i32 accumulators (the i8gemm.h exactness
//    contract — the documented cross-provider error bound is zero).
//  * QuantLayerPath: Dense/Conv2d int8 forwards track their fp32 forwards
//    within quantization-noise tolerances, mask inactive units to exact
//    zeros, and leave every fp32 path bitwise untouched (a context whose
//    precision is fp32 is a pure no-op, including during a calibration
//    pass).
//  * QuantAccuracyGate: the ISSUE 7 acceptance bound — the int8 ladder
//    loses at most 1.0 top-1 percentage point vs fp32 at every level.
//
// CI's sanitize/TSan/isa-matrix jobs re-run this suite (ctest -R Quant).
#include "quant/quantize.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/any_width.h"
#include "core/macs.h"
#include "core/train_loops.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "quant/calibration.h"
#include "quant/policy.h"
#include "quant/prepared.h"
#include "tensor/gemm_isa.h"
#include "tensor/i8gemm.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

::testing::AssertionResult bitwise_equal(const Tensor& a, const Tensor& b,
                                         const std::string& what) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << what << ": shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(),
                  sizeof(float) * static_cast<std::size_t>(a.numel())) != 0) {
    return ::testing::AssertionFailure() << what << ": bitwise MISMATCH";
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Core numeric semantics.
// ---------------------------------------------------------------------------

TEST(QuantRounding, SaturatesAtPlusMinus127) {
  EXPECT_EQ(quant::quantize_value(1e6f, 1.0f, 0, -127, 127), 127);
  EXPECT_EQ(quant::quantize_value(-1e6f, 1.0f, 0, -127, 127), -127);
  EXPECT_EQ(quant::quantize_value(127.4f, 1.0f, 0, -127, 127), 127);
  EXPECT_EQ(quant::quantize_value(-127.6f, 1.0f, 0, -127, 127), -127);

  // Weight quantization never emits -128: the range endpoints map to the
  // symmetric codes +/-127 exactly.
  const float wt[] = {3.0f, -3.0f, 1.5f, 0.0f};
  quant::WeightQuant wq;
  quant::quantize_weights_per_channel(wt, /*n=*/1, /*k=*/4, &wq);
  EXPECT_EQ(wq.q[0], 127);
  EXPECT_EQ(wq.q[1], -127);
  EXPECT_EQ(wq.q[3], 0);
  for (const std::int8_t c : wq.q) EXPECT_GE(c, -127);

  // Activations beyond the calibrated range saturate at the top code.
  const quant::ActQuant aq = quant::activation_params(1.0f, /*nonneg=*/true);
  const float x[] = {50.0f, 1.0f};
  std::uint8_t q[4] = {9, 9, 9, 9};
  quant::quantize_activations(x, /*m=*/1, /*k=*/2, /*k4=*/4, aq, q);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], 127);
  EXPECT_EQ(q[2], 0);  // zero padding past k
  EXPECT_EQ(q[3], 0);
}

TEST(QuantRounding, HalfToEvenTies) {
  EXPECT_EQ(quant::quantize_value(0.5f, 1.0f, 0, -127, 127), 0);
  EXPECT_EQ(quant::quantize_value(1.5f, 1.0f, 0, -127, 127), 2);
  EXPECT_EQ(quant::quantize_value(2.5f, 1.0f, 0, -127, 127), 2);
  EXPECT_EQ(quant::quantize_value(3.5f, 1.0f, 0, -127, 127), 4);
  EXPECT_EQ(quant::quantize_value(-0.5f, 1.0f, 0, -127, 127), 0);
  EXPECT_EQ(quant::quantize_value(-2.5f, 1.0f, 0, -127, 127), -2);
  EXPECT_EQ(quant::quantize_value(-3.5f, 1.0f, 0, -127, 127), -4);
}

TEST(QuantRounding, NanMapsToZeroPoint) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(quant::quantize_value(nan, 1.0f, 64, 0, 127), 64);
  EXPECT_EQ(quant::quantize_value(nan, 1.0f, 0, -127, 127), 0);
}

TEST(QuantWeights, ZeroRangeChannelDegeneratesToBias) {
  // Channel 0 is all-zero: scale 1, all-zero codes, zero compensation —
  // its int8 output must be EXACTLY the bias for every row.
  const int n = 2, k = 8;
  std::vector<float> wt(static_cast<std::size_t>(n) * k, 0.0f);
  Rng rng(7);
  for (int j = 0; j < k; ++j) {
    wt[static_cast<std::size_t>(k + j)] = static_cast<float>(rng.normal());
  }
  quant::WeightQuant wq;
  quant::quantize_weights_per_channel(wt.data(), n, k, &wq);
  EXPECT_EQ(wq.scale[0], 1.0f);
  EXPECT_EQ(wq.wsum[0], 0);
  for (int j = 0; j < k; ++j) EXPECT_EQ(wq.q[static_cast<std::size_t>(j)], 0);

  std::vector<int> columns(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) columns[static_cast<std::size_t>(j)] = j;
  const quant::PreparedInt8 pw = quant::prepare_int8_weights(
      wt.data(), k, /*group_cols=*/1, {0, 1}, columns);
  const int m = 3;
  Tensor x({m, k});
  fill_normal(x, 0.0f, 1.0f, rng);
  const quant::ActQuant aq = quant::activation_params(4.0f, /*nonneg=*/false);
  const float bias[] = {0.75f, -1.25f};
  Tensor y({m, n});
  quant::int8_dense_forward(x.data(), m, k, pw, aq, bias, /*relu=*/false, n,
                            y.data());
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(y.data()[i * n + 0], 0.75f) << "row " << i;
  }
}

TEST(QuantWeights, PerChannelMatchesPerTensorOnSingleChannel) {
  const int k = 13;
  std::vector<float> wt(static_cast<std::size_t>(k));
  Rng rng(11);
  for (auto& v : wt) v = static_cast<float>(rng.normal());
  quant::WeightQuant pc, pt;
  quant::quantize_weights_per_channel(wt.data(), 1, k, &pc);
  quant::quantize_weights_per_tensor(wt.data(), 1, k, &pt);
  EXPECT_EQ(pc.q, pt.q);
  EXPECT_EQ(pc.scale, pt.scale);
  EXPECT_EQ(pc.wsum, pt.wsum);
}

TEST(QuantActivations, ZeroMapsToZeroPointExactly) {
  const float x[] = {0.0f, -2.0f, 2.0f, 0.0f};
  std::uint8_t q[4];
  const quant::ActQuant general =
      quant::activation_params(2.0f, /*nonneg=*/false);
  EXPECT_EQ(general.zero_point, 64);
  quant::quantize_activations(x, 1, 4, 4, general, q);
  EXPECT_EQ(q[0], 64);
  EXPECT_EQ(q[1], 1);    // -2 -> clamp(round(-63), -64, 63) + 64
  EXPECT_EQ(q[2], 127);  //  2 -> 63 + 64
  EXPECT_EQ(q[3], 64);

  const quant::ActQuant nonneg =
      quant::activation_params(2.0f, /*nonneg=*/true);
  EXPECT_EQ(nonneg.zero_point, 0);
  quant::quantize_activations(x, 1, 4, 4, nonneg, q);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[2], 127);
}

// ---------------------------------------------------------------------------
// Provider parity: bit-identical accumulators at every tier.
// ---------------------------------------------------------------------------

class QuantProviderParity : public ::testing::Test {
 protected:
  void TearDown() override {
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

TEST_F(QuantProviderParity, AccumulatorsBitIdenticalAcrossTiers) {
  const struct { int m, k, n; } shapes[] = {
      {65, 129, 33},   // ragged everything
      {10, 512, 128},  // deep-k classifier tail
      {7, 3, 9},       // k below one contraction granule
      {1, 40, 16},     // single serving row
  };
  for (const auto& s : shapes) {
    Rng rng(23);
    std::vector<float> wt(static_cast<std::size_t>(s.n) * s.k);
    for (auto& v : wt) v = static_cast<float>(rng.normal());
    quant::WeightQuant wq;
    quant::quantize_weights_per_channel(wt.data(), s.n, s.k, &wq);
    const int k4 = i8gemm_k4(s.k);
    Tensor x({s.m, s.k});
    fill_normal(x, 0.5f, 1.0f, rng);
    float absmax = 0.0f;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      absmax = std::max(absmax, std::abs(x.data()[i]));
    }
    const quant::ActQuant aq = quant::activation_params(absmax, false);
    std::vector<std::uint8_t> a8(static_cast<std::size_t>(s.m) * k4);
    quant::quantize_activations(x.data(), s.m, s.k, k4, aq, a8.data());

    const I8GemmKernel& ref = i8gemm_ref_kernel();
    std::vector<std::int8_t> pref(i8gemm_packed_bytes(s.k, s.n, ref.nr));
    i8gemm_pack(wq.q.data(), s.k, s.n, ref.nr, pref.data());
    std::vector<std::int32_t> want(static_cast<std::size_t>(s.m) * s.n);
    i8gemm_run(ref, a8.data(), s.m, s.k, pref.data(), s.n, want.data());

    for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
      const IsaTier tier = static_cast<IsaTier>(t);
      if (!isa_tier_compiled(tier)) continue;
      set_isa_tier(tier);
      const I8GemmKernel& kern = i8gemm_kernel();
      std::vector<std::int8_t> pk(i8gemm_packed_bytes(s.k, s.n, kern.nr));
      i8gemm_pack(wq.q.data(), s.k, s.n, kern.nr, pk.data());
      for (const int threads : {1, 3}) {
        ThreadPool::set_global_threads(threads);
        std::vector<std::int32_t> got(static_cast<std::size_t>(s.m) * s.n);
        i8gemm_run(kern, a8.data(), s.m, s.k, pk.data(), s.n, got.data());
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 sizeof(std::int32_t) * want.size()))
            << "provider " << kern.name << " vs " << ref.name << " m=" << s.m
            << " k=" << s.k << " n=" << s.n << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pack-cache discipline for int8 panel blobs (pack kind 1).
// ---------------------------------------------------------------------------

/// A wired Dense layer driven directly (flat input of `k` features), plus
/// a calibration table covering its level-1 input range.
struct DenseRig {
  DenseRig(int units, int k, unsigned seed) : layer("fc", units) {
    Rng rng(seed);
    IOSpec in;
    in.units = k;
    in.features_per_unit = 1;
    in.flat = true;
    in.assignment = std::make_shared<Assignment>(static_cast<std::size_t>(k), 1);
    layer.set_out_spec(layer.wire(in, rng));
  }

  /// fp32 calibration pass for `x` at the context's level, then an int8
  /// inference context bound to the recorded table.
  SubnetContext int8_ctx(const Tensor& x) {
    SubnetContext rec;
    rec.training = false;
    rec.calib_record = &table;
    layer.forward(x, rec);
    SubnetContext ctx;
    ctx.training = false;
    ctx.precision = quant::Precision::kInt8;
    ctx.calibration = &table;
    return ctx;
  }

  Dense layer;
  quant::CalibrationTable table;
};

// ---------------------------------------------------------------------------
// Layer-level int8 paths + the fp32 no-op guarantee.
// ---------------------------------------------------------------------------

class QuantLayerPath : public ::testing::Test {
 protected:
  void TearDown() override {
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

TEST_F(QuantLayerPath, DenseInt8TracksFp32AndMasksExactZeros) {
  DenseRig rig(/*units=*/48, /*k=*/64, 51);
  // Units 32.. belong to subnet 2: inactive at level 1, must be exact 0.
  for (int u = 32; u < 48; ++u) rig.layer.set_unit_subnet(u, 2);
  Rng rng(6);
  Tensor x({8, 64});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx = rig.int8_ctx(x);

  SubnetContext fp;
  fp.training = false;
  const Tensor want = rig.layer.forward(x, fp);
  const Tensor got = rig.layer.forward(x, ctx);
  ASSERT_EQ(want.shape(), got.shape());
  double max_diff = 0.0, sum_diff = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const double d = std::abs(want.data()[i] - got.data()[i]);
    max_diff = std::max(max_diff, d);
    sum_diff += d;
  }
  EXPECT_LT(max_diff, 0.5);
  EXPECT_LT(sum_diff / static_cast<double>(want.numel()), 0.1);
  for (int i = 0; i < 8; ++i) {
    for (int j = 32; j < 48; ++j) {
      EXPECT_EQ(got.data()[i * 48 + j], 0.0f) << "masked unit " << j;
    }
  }
}

TEST_F(QuantLayerPath, ConvInt8TracksFp32) {
  Conv2d conv("c1", /*units=*/16, /*ksize=*/3);
  Rng rng(8);
  IOSpec in;
  in.units = 8;
  in.h = 8;
  in.w = 8;
  in.assignment = std::make_shared<Assignment>(8, 1);
  conv.set_out_spec(conv.wire(in, rng));
  Tensor x({2, 8, 8, 8});
  fill_normal(x, 0.0f, 1.0f, rng);

  quant::CalibrationTable table;
  SubnetContext rec;
  rec.training = false;
  rec.calib_record = &table;
  conv.forward(x, rec);

  SubnetContext fp;
  fp.training = false;
  const Tensor want = conv.forward(x, fp);
  SubnetContext ctx;
  ctx.training = false;
  ctx.precision = quant::Precision::kInt8;
  ctx.calibration = &table;
  const Tensor got = conv.forward(x, ctx);
  ASSERT_EQ(want.shape(), got.shape());
  double max_diff = 0.0, sum_diff = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const double d = std::abs(want.data()[i] - got.data()[i]);
    max_diff = std::max(max_diff, d);
    sum_diff += d;
  }
  EXPECT_LT(max_diff, 0.5);
  EXPECT_LT(sum_diff / static_cast<double>(want.numel()), 0.1);
}

// ---------------------------------------------------------------------------
// Int8 bits pinned against an explicit full-width route.
// ---------------------------------------------------------------------------

constexpr int kPinLevels = 3;

/// Levels 1..kPinLevels, each present at least once, in shuffled order.
AssignmentPtr shuffled_pin_levels(int n, Rng& rng) {
  auto a = std::make_shared<Assignment>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    (*a)[static_cast<std::size_t>(i)] = 1 + i % kPinLevels;
  }
  rng.shuffle(*a);
  return a;
}

/// Shuffled unit levels, about 30 % of the weights pruned and unit 0's
/// weight row all zero (a zero-range row: scale 1, codes 0, output = bias).
void scramble_layer(MaskedLayer& layer, Rng& rng) {
  const AssignmentPtr levels = shuffled_pin_levels(layer.num_units(), rng);
  for (int u = 0; u < layer.num_units(); ++u) {
    layer.set_unit_subnet(u, (*levels)[static_cast<std::size_t>(u)]);
  }
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(layer.num_units()) * layer.num_cols());
  for (auto& m : mask) m = rng.uniform(0.0, 1.0) < 0.3 ? 0 : 1;
  layer.set_prune_mask(mask);
  float* w = layer.weight().value.data();
  std::fill(w, w + layer.num_cols(), 0.0f);
  fill_normal(layer.bias().value, 0.0f, 0.5f, rng);
}

/// Standard-normal input with NaN, +-Inf, -0 and +-1e30 planted in it.
Tensor pin_input(std::vector<int> shape, unsigned seed) {
  Rng rng(seed);
  Tensor x(std::move(shape));
  fill_normal(x, 0.0f, 1.0f, rng);
  const float special[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           -0.0f, 1e30f, -1e30f};
  for (std::int64_t i = 0; i < x.numel(); i += 7) {
    x.data()[i] = special[(i / 7) % 6];
  }
  return x;
}

/// Calibration entries for `name` at every level: odd levels see signed
/// inputs (zero point 64), even levels non-negative ones (zero point 0).
void calibrate_pin(quant::CalibrationTable& table, const std::string& name) {
  const float signed_range[] = {-2.5f, 1.0f};
  const float nonneg_range[] = {0.0f, 3.0f};
  for (int level = 1; level <= kPinLevels; ++level) {
    table.record(name, level, level % 2 ? signed_range : nonneg_range, 2);
  }
}

/// The explicit int8 route at `level`, full width: `act` holds m rows of k
/// activations (row i at act + i * k), each element quantized with
/// quantize_value; the whole effective weight matrix is quantized per row;
/// the scalar reference provider multiplies over every column; then the
/// dequantization formula. Returns the (m x units) result; units the level
/// does not compute stay +0.
std::vector<float> explicit_int8(MaskedLayer& layer, int level,
                                 const std::vector<float>& act, int m,
                                 const quant::ActQuant& aq, bool relu) {
  const int k = layer.num_cols(), units = layer.num_units();
  const int k4 = i8gemm_k4(k);
  std::vector<std::uint8_t> a8(static_cast<std::size_t>(m) * k4, 0);
  const float inv = 1.0f / aq.scale;
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      a8[static_cast<std::size_t>(i) * k4 + p] = static_cast<std::uint8_t>(
          quant::quantize_value(act[static_cast<std::size_t>(i) * k + p], inv,
                                aq.zero_point, 0, 127));
    }
  }
  quant::WeightQuant wq;
  quant::quantize_weights_per_channel(layer.effective_weights().data(), units,
                                      k, &wq);
  const I8GemmKernel& ref = i8gemm_ref_kernel();
  std::vector<std::int8_t> packed(i8gemm_packed_bytes(k, units, ref.nr));
  i8gemm_pack(wq.q.data(), k, units, ref.nr, packed.data());
  std::vector<std::int32_t> acc(static_cast<std::size_t>(m) * units);
  i8gemm_run(ref, a8.data(), m, k, packed.data(), units, acc.data());
  std::vector<float> y(static_cast<std::size_t>(m) * units, 0.0f);
  for (int u = 0; u < units; ++u) {
    if (layer.unit_subnet()[static_cast<std::size_t>(u)] > level) continue;
    const float cs = aq.scale * wq.scale[static_cast<std::size_t>(u)];
    const std::int32_t comp = aq.zero_point * wq.wsum[static_cast<std::size_t>(u)];
    for (int i = 0; i < m; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) * units + u;
      float v = static_cast<float>(acc[at] - comp) * cs +
                layer.bias().value.data()[u];
      if (relu && v < 0.0f) v = 0.0f;
      y[at] = v;
    }
  }
  return y;
}

/// Every compiled ISA tier at 1 and 3 threads; `check` runs at each.
template <typename F>
void at_every_tier_and_thread_count(F check) {
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (!isa_tier_compiled(tier)) continue;
    set_isa_tier(tier);
    for (const int threads : {1, 3}) {
      ThreadPool::set_global_threads(threads);
      check(std::string(isa_tier_name(tier)) + " threads=" +
            std::to_string(threads));
    }
  }
}

TEST_F(QuantLayerPath, Int8ConvAndDenseMatchExplicitRouteAtEveryLevel) {
  int cases = 0;
  for (const int kernel : {1, 3, 5}) {
    for (const int stride : {1, 2}) {
      for (const int pad : {0, -1}) {
        Rng rng(static_cast<unsigned>(100 + kernel * 10 + stride * 2 + pad));
        Conv2d conv("c", /*units=*/11, kernel, stride, pad);
        IOSpec in;
        in.units = 7;
        in.h = 9;
        in.w = 8;
        in.assignment = shuffled_pin_levels(in.units, rng);
        conv.set_out_spec(conv.wire(in, rng));
        scramble_layer(conv, rng);
        quant::CalibrationTable table;
        calibrate_pin(table, "c");
        const Conv2dGeometry& g = conv.geometry();
        const int spatial = g.out_h() * g.out_w();
        for (const int batch : {1, 3}) {
          const Tensor x = pin_input({batch, g.in_c, g.in_h, g.in_w},
                                     static_cast<unsigned>(batch + cases));
          // im2col of every image, transposed to one row per output
          // position: the full-width activation rows.
          std::vector<float> act(static_cast<std::size_t>(batch) * spatial *
                                 g.patch());
          std::vector<float> cols(static_cast<std::size_t>(g.patch()) * spatial);
          for (int b = 0; b < batch; ++b) {
            im2col(x.data() + static_cast<std::int64_t>(b) * g.in_c * g.in_h *
                                  g.in_w,
                   g, cols.data());
            for (int s = 0; s < spatial; ++s) {
              for (int p = 0; p < g.patch(); ++p) {
                act[(static_cast<std::size_t>(b) * spatial + s) * g.patch() + p] =
                    cols[static_cast<std::size_t>(p) * spatial + s];
              }
            }
          }
          for (int level = 1; level <= kPinLevels; ++level) {
            const quant::ActQuant aq = table.params(*table.find("c", level));
            for (const bool relu : {false, true}) {
              const std::vector<float> ym = explicit_int8(
                  conv, level, act, batch * spatial, aq, relu);
              // (b, s, u) -> (b, u, s)
              Tensor want({batch, conv.num_units(), g.out_h(), g.out_w()});
              for (int b = 0; b < batch; ++b) {
                for (int s = 0; s < spatial; ++s) {
                  for (int u = 0; u < conv.num_units(); ++u) {
                    want.data()[(static_cast<std::int64_t>(b) * conv.num_units() +
                                 u) * spatial + s] =
                        ym[(static_cast<std::size_t>(b) * spatial + s) *
                               conv.num_units() + u];
                  }
                }
              }
              SubnetContext ctx;
              ctx.subnet_id = level;
              ctx.num_subnets = kPinLevels;
              ctx.precision = quant::Precision::kInt8;
              ctx.calibration = &table;
              at_every_tier_and_thread_count([&](const std::string& where) {
                const Tensor got =
                    relu ? conv.forward_relu(x, ctx) : conv.forward(x, ctx);
                EXPECT_TRUE(bitwise_equal(
                    want, got,
                    "conv k=" + std::to_string(kernel) + " s=" +
                        std::to_string(stride) + " pad=" + std::to_string(pad) +
                        " batch=" + std::to_string(batch) + " level=" +
                        std::to_string(level) + " relu=" +
                        std::to_string(relu) + " " + where));
              });
              ++cases;
            }
          }
        }
      }
    }
  }

  // Dense over 7 input units of 3 features each (a flattened 1x3 plane).
  Rng rng(200);
  Dense fc("fc", /*units=*/9);
  IOSpec in;
  in.units = 7;
  in.features_per_unit = 3;
  in.flat = true;
  in.assignment = shuffled_pin_levels(in.units, rng);
  fc.set_out_spec(fc.wire(in, rng));
  scramble_layer(fc, rng);
  quant::CalibrationTable table;
  calibrate_pin(table, "fc");
  for (const int batch : {1, 3}) {
    const Tensor x = pin_input({batch, fc.num_cols()},
                               static_cast<unsigned>(300 + batch));
    const std::vector<float> act(x.data(), x.data() + x.numel());
    for (int level = 1; level <= kPinLevels; ++level) {
      const quant::ActQuant aq = table.params(*table.find("fc", level));
      for (const bool relu : {false, true}) {
        const std::vector<float> ym =
            explicit_int8(fc, level, act, batch, aq, relu);
        Tensor want({batch, fc.num_units()});
        std::copy(ym.begin(), ym.end(), want.data());
        SubnetContext ctx;
        ctx.subnet_id = level;
        ctx.num_subnets = kPinLevels;
        ctx.precision = quant::Precision::kInt8;
        ctx.calibration = &table;
        at_every_tier_and_thread_count([&](const std::string& where) {
          const Tensor got = relu ? fc.forward_relu(x, ctx) : fc.forward(x, ctx);
          EXPECT_TRUE(bitwise_equal(
              want, got,
              "dense batch=" + std::to_string(batch) + " level=" +
                  std::to_string(level) + " relu=" + std::to_string(relu) +
                  " " + where));
        });
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 12 * 2 * kPinLevels * 2 + 2 * kPinLevels * 2);
}

TEST_F(QuantLayerPath, Fp32PathIsPureNoOp) {
  // The fp32 precision must leave fp32 bits untouched: a context carrying a
  // calibration table (precision fp32) and a recording pass both produce
  // outputs bitwise identical to the plain fp32 forward.
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15,
                 .seed = 17};
  Network net = build_model("lenet3c1l", mc);
  Rng rng(9);
  Tensor x({3, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);

  SubnetContext plain;
  plain.training = false;
  const Tensor want = net.forward(x, plain);

  quant::CalibrationTable table;
  SubnetContext rec;
  rec.training = false;
  rec.calib_record = &table;
  EXPECT_TRUE(bitwise_equal(want, net.forward(x, rec),
                            "calibration-recording forward"));
  EXPECT_FALSE(table.empty());

  SubnetContext carry;
  carry.training = false;
  carry.calibration = &table;  // present but precision stays kFp32
  EXPECT_TRUE(bitwise_equal(want, net.forward(x, carry),
                            "fp32 forward with table attached"));
}

// ---------------------------------------------------------------------------
// ISSUE 7 acceptance: <= 1.0 top-1 pp loss at every ladder level.
// ---------------------------------------------------------------------------

TEST(QuantAccuracyGate, Int8LadderWithinOnePointOfFp32PerLevel) {
  DataSplit data = make_synthetic(
      synth_cifar10(/*train_per_class=*/20, /*test_per_class=*/20));
  ModelConfig mc{.classes = 10, .expansion = 1.2, .width_mult = 0.2,
                 .seed = 33};
  Network net = build_lenet3c1l(mc);
  const std::int64_t full = full_macs(net);
  std::vector<std::int64_t> budgets;
  for (const double f : {0.15, 0.4, 0.85}) {
    budgets.push_back(static_cast<std::int64_t>(f * 0.5 * full));
  }
  assign_prefix_subnets(net, solve_prefix_fractions(net, budgets));
  const int levels = 3;

  Sgd sgd(SgdConfig{.lr = 0.05});
  Rng rng(9);
  for (int pass = 0; pass < 2; ++pass) {
    for (int level = 1; level <= levels; ++level) {
      train_plain(net, data.train, sgd, level, /*epochs=*/1, /*batch=*/20,
                  rng);
    }
  }

  Tensor cx;
  std::vector<int> cy;
  data.train.batch(0, data.train.size(), cx, cy);
  const std::shared_ptr<quant::CalibrationTable> table =
      calibrate_int8(net, cx, /*batch=*/64, levels);

  for (int level = 1; level <= levels; ++level) {
    const double fp = dataset_accuracy(
        data.test, 64, [&](const Tensor& x, const std::vector<int>& y) {
          return eval_batch(net, x, y, level);
        });
    SubnetContext ctx;
    ctx.subnet_id = level;
    ctx.num_subnets = levels;
    ctx.training = false;
    ctx.precision = quant::Precision::kInt8;
    ctx.calibration = table.get();
    const double i8 = dataset_accuracy(
        data.test, 64, [&](const Tensor& x, const std::vector<int>& y) {
          return eval_batch(net, x, y, ctx);
        });
    EXPECT_GE(i8, fp - 0.0100001)
        << "level " << level << ": int8 " << i8 << " vs fp32 " << fp;
  }
}

}  // namespace
}  // namespace stepping
