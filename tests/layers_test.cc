#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <functional>
#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"
#include "tensor/ops.h"

namespace stepping {
namespace {

IOSpec image_spec(int c, int h, int w) {
  IOSpec s;
  s.units = c;
  s.h = h;
  s.w = w;
  s.assignment = std::make_shared<Assignment>(static_cast<std::size_t>(c), 1);
  return s;
}

IOSpec flat_spec(int units, int fpu = 1) {
  IOSpec s;
  s.units = units;
  s.features_per_unit = fpu;
  s.flat = true;
  s.assignment = std::make_shared<Assignment>(static_cast<std::size_t>(units), 1);
  return s;
}

/// Scalar pseudo-loss L = <y, R> so dL/dy = R; lets us numerically check
/// every parameter and input gradient of a layer.
double loss_of(Layer& layer, const Tensor& x, const Tensor& r,
               const SubnetContext& ctx) {
  const Tensor y = layer.forward(x, ctx);
  double s = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    s += static_cast<double>(y[i]) * r[i];
  }
  return s;
}

void check_param_gradients(Layer& layer, Param& p, const Tensor& x,
                           const Tensor& r, const SubnetContext& ctx,
                           double tol = 2e-2, int samples = 12) {
  // Analytic gradients.
  p.zero_grad();
  const Tensor y = layer.forward(x, ctx);
  ASSERT_EQ(y.shape(), r.shape());
  layer.backward(r, ctx);

  Rng pick(99);
  const float eps = 1e-2f;
  for (int s = 0; s < samples; ++s) {
    const auto i =
        static_cast<std::int64_t>(pick.next_below(static_cast<std::uint64_t>(p.value.numel())));
    const float saved = p.value[i];
    p.value[i] = saved + eps;
    const double lp = loss_of(layer, x, r, ctx);
    p.value[i] = saved - eps;
    const double lm = loss_of(layer, x, r, ctx);
    p.value[i] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double analytic = p.grad[i];
    EXPECT_NEAR(analytic, numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "param " << p.name << " index " << i;
  }
}

void check_input_gradients(Layer& layer, const Tensor& x0, const Tensor& r,
                           const SubnetContext& ctx, double tol = 2e-2,
                           int samples = 12) {
  Tensor x = x0;
  layer.forward(x, ctx);
  const Tensor gx = layer.backward(r, ctx);
  Rng pick(123);
  const float eps = 1e-2f;
  for (int s = 0; s < samples; ++s) {
    const auto i =
        static_cast<std::int64_t>(pick.next_below(static_cast<std::uint64_t>(x.numel())));
    const float saved = x[i];
    x[i] = saved + eps;
    const double lp = loss_of(layer, x, r, ctx);
    x[i] = saved - eps;
    const double lm = loss_of(layer, x, r, ctx);
    x[i] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(gx[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "input index " << i;
  }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

TEST(Conv2dTest, OutputShape) {
  Conv2d conv("c", 5, 3);
  Rng rng(1);
  const IOSpec out = conv.wire(image_spec(2, 8, 8), rng);
  EXPECT_EQ(out.units, 5);
  EXPECT_EQ(out.h, 8);  // same padding
  EXPECT_EQ(out.w, 8);
  Tensor x({3, 2, 8, 8});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  const Tensor y = conv.forward(x, ctx);
  EXPECT_EQ(y.shape(), (std::vector<int>{3, 5, 8, 8}));
}

TEST(Conv2dTest, WeightGradientsMatchNumeric) {
  Conv2d conv("c", 3, 3);
  Rng rng(2);
  conv.wire(image_spec(2, 5, 5), rng);
  Tensor x({2, 2, 5, 5}), r({2, 3, 5, 5});
  fill_normal(x, 0.0f, 1.0f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  check_param_gradients(conv, conv.weight(), x, r, ctx);
}

TEST(Conv2dTest, BiasGradientsMatchNumeric) {
  Conv2d conv("c", 3, 3);
  Rng rng(3);
  conv.wire(image_spec(2, 5, 5), rng);
  Tensor x({2, 2, 5, 5}), r({2, 3, 5, 5});
  fill_normal(x, 0.0f, 1.0f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  check_param_gradients(conv, conv.bias(), x, r, ctx);
}

TEST(Conv2dTest, InputGradientsMatchNumeric) {
  Conv2d conv("c", 4, 3);
  Rng rng(4);
  conv.wire(image_spec(3, 6, 6), rng);
  Tensor x({1, 3, 6, 6}), r({1, 4, 6, 6});
  fill_normal(x, 0.0f, 1.0f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  check_input_gradients(conv, x, r, ctx);
}

TEST(Conv2dTest, InactiveUnitsOutputZero) {
  Conv2d conv("c", 4, 3);
  Rng rng(5);
  conv.wire(image_spec(2, 5, 5), rng);
  conv.set_unit_subnet(2, 2);
  conv.set_unit_subnet(3, 3);
  Tensor x({1, 2, 5, 5});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.subnet_id = 1;
  const Tensor y = conv.forward(x, ctx);
  for (int h = 0; h < 5; ++h) {
    for (int w = 0; w < 5; ++w) {
      EXPECT_EQ(y.at(0, 2, h, w), 0.0f);
      EXPECT_EQ(y.at(0, 3, h, w), 0.0f);
      EXPECT_NE(y.at(0, 0, h, w), 0.0f);
    }
  }
}

TEST(Conv2dTest, StructuralRuleBlocksHigherToLowerSynapses) {
  // Two chained convs: mark an input unit as subnet 2; weights from it into
  // subnet-1 units of the consumer must have no effect even in subnet 2.
  Conv2d c1("c1", 3, 3);
  Conv2d c2("c2", 2, 3);
  Rng rng(6);
  const IOSpec mid = c1.wire(image_spec(1, 5, 5), rng);
  c2.wire(mid, rng);
  c1.set_unit_subnet(1, 2);  // producer unit in subnet 2 only
  // c2 unit 0 stays subnet 1; its weights from producer unit 1 are blocked.
  Tensor x({1, 1, 5, 5});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx2;
  ctx2.subnet_id = 2;
  const Tensor y_before = c2.forward(c1.forward(x, ctx2), ctx2);
  // Mutate exactly the blocked weights; the subnet-1 unit must not change.
  const int kk = 9;
  for (int col = 1 * kk; col < 2 * kk; ++col) {
    c2.weight().value.at(0, col) += 100.0f;
  }
  const Tensor y_after = c2.forward(c1.forward(x, ctx2), ctx2);
  for (int h = 0; h < 5; ++h) {
    for (int w = 0; w < 5; ++w) {
      EXPECT_EQ(y_before.at(0, 0, h, w), y_after.at(0, 0, h, w));
      // Unit 1 of c2 (same subnet as producer or head-free) is unconstrained
      // only if its subnet >= 2; it is subnet 1 too, so also unchanged.
      EXPECT_EQ(y_before.at(0, 1, h, w), y_after.at(0, 1, h, w));
    }
  }
}

TEST(Conv2dTest, HeadLayerIgnoresStructuralRule) {
  Conv2d c1("c1", 2, 3);
  Conv2d c2("c2", 2, 3);
  Rng rng(7);
  const IOSpec mid = c1.wire(image_spec(1, 5, 5), rng);
  c2.wire(mid, rng);
  c2.set_head(true);
  c1.set_unit_subnet(1, 2);
  Tensor x({1, 1, 5, 5});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx2;
  ctx2.subnet_id = 2;
  const Tensor y_before = c2.forward(c1.forward(x, ctx2), ctx2);
  for (int col = 9; col < 18; ++col) c2.weight().value.at(0, col) += 1.0f;
  const Tensor y_after = c2.forward(c1.forward(x, ctx2), ctx2);
  // Head weights from the subnet-2 producer ARE used in subnet 2.
  bool changed = false;
  for (std::int64_t i = 0; i < y_before.numel() && !changed; ++i) {
    changed = y_before[i] != y_after[i];
  }
  EXPECT_TRUE(changed);
}

TEST(Conv2dTest, PruneMaskZeroesWeightsButKeepsGradients) {
  Conv2d conv("c", 2, 3);
  Rng rng(8);
  conv.wire(image_spec(1, 4, 4), rng);
  // Prune everything: output must be bias-only.
  conv.apply_magnitude_prune(1e9f);
  Tensor x({1, 1, 4, 4});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  conv.bias().value.fill(0.25f);
  const Tensor y = conv.forward(x, ctx);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 0.25f);
  // Gradients still flow to pruned weights (revival support).
  Tensor r(y.shape());
  fill_normal(r, 0.0f, 1.0f, rng);
  conv.weight().zero_grad();
  conv.backward(r, ctx);
  double gsum = 0.0;
  for (std::int64_t i = 0; i < conv.weight().grad.numel(); ++i) {
    gsum += std::fabs(conv.weight().grad[i]);
  }
  EXPECT_GT(gsum, 0.0);
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

TEST(DenseTest, ForwardComputesAffine) {
  Dense d("d", 2);
  Rng rng(9);
  d.wire(flat_spec(3), rng);
  d.weight().value = Tensor({2, 3}, {1, 0, 0, 0, 1, 0});
  d.bias().value = Tensor({2}, {0.5f, -0.5f});
  Tensor x({1, 3}, {2.0f, 3.0f, 4.0f});
  SubnetContext ctx;
  const Tensor y = d.forward(x, ctx);
  EXPECT_NEAR(y[0], 2.5f, 1e-6f);
  EXPECT_NEAR(y[1], 2.5f, 1e-6f);
}

TEST(DenseTest, WeightGradientsMatchNumeric) {
  Dense d("d", 4);
  Rng rng(10);
  d.wire(flat_spec(6), rng);
  Tensor x({3, 6}), r({3, 4});
  fill_normal(x, 0.0f, 1.0f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  check_param_gradients(d, d.weight(), x, r, ctx);
  check_param_gradients(d, d.bias(), x, r, ctx);
}

TEST(DenseTest, InputGradientsMatchNumeric) {
  Dense d("d", 4);
  Rng rng(11);
  d.wire(flat_spec(5), rng);
  Tensor x({2, 5}), r({2, 4});
  fill_normal(x, 0.0f, 1.0f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  check_input_gradients(d, x, r, ctx);
}

TEST(DenseTest, FeatureGroupingMapsColumnsToUnits) {
  Dense d("d", 2);
  Rng rng(12);
  d.wire(flat_spec(3, /*fpu=*/4), rng);  // 12 input features, 3 units
  EXPECT_EQ(d.num_cols(), 12);
  EXPECT_EQ(d.in_unit_of_col(0), 0);
  EXPECT_EQ(d.in_unit_of_col(3), 0);
  EXPECT_EQ(d.in_unit_of_col(4), 1);
  EXPECT_EQ(d.in_unit_of_col(11), 2);
}

TEST(DenseTest, ImportanceHarvestMatchesDefinition) {
  // dL/dr_j = sum(grad_preact_j * (preact_j - b_j)) (Eq. 2); with L = <y, R>,
  // grad_preact = R for active units.
  Dense d("d", 2);
  Rng rng(13);
  d.wire(flat_spec(3), rng);
  d.reset_importance(1);
  Tensor x({2, 3}), r({2, 2});
  fill_normal(x, 0.0f, 1.0f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  ctx.harvest_importance = true;
  const Tensor y = d.forward(x, ctx);
  d.backward(r, ctx);
  for (int u = 0; u < 2; ++u) {
    double expect = 0.0;
    for (int i = 0; i < 2; ++i) {
      expect += static_cast<double>(r.at(i, u)) *
                (y.at(i, u) - d.bias().value[u]);
    }
    EXPECT_NEAR(d.importance()[0][static_cast<std::size_t>(u)],
                std::fabs(expect), 1e-4);
  }
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

TEST(BatchNormTest, NormalizesPerChannelInTraining) {
  BatchNorm2d bn("bn");
  Rng rng(14);
  bn.wire(image_spec(3, 4, 4), rng);
  Tensor x({8, 3, 4, 4});
  fill_normal(x, 5.0f, 3.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  const Tensor y = bn.forward(x, ctx);
  for (int c = 0; c < 3; ++c) {
    double s = 0.0, s2 = 0.0;
    int n = 0;
    for (int i = 0; i < 8; ++i) {
      for (int h = 0; h < 4; ++h) {
        for (int w = 0; w < 4; ++w) {
          const float v = y.at(i, c, h, w);
          s += v;
          s2 += static_cast<double>(v) * v;
          ++n;
        }
      }
    }
    EXPECT_NEAR(s / n, 0.0, 1e-3);
    EXPECT_NEAR(s2 / n, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, GammaBetaGradientsMatchNumeric) {
  BatchNorm2d bn("bn");
  Rng rng(15);
  bn.wire(image_spec(2, 3, 3), rng);
  Tensor x({4, 2, 3, 3}), r({4, 2, 3, 3});
  fill_normal(x, 1.0f, 2.0f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  check_param_gradients(bn, *bn.params()[0], x, r, ctx, 3e-2);
  check_param_gradients(bn, *bn.params()[1], x, r, ctx, 3e-2);
}

TEST(BatchNormTest, InputGradientsMatchNumeric) {
  BatchNorm2d bn("bn");
  Rng rng(16);
  bn.wire(image_spec(2, 3, 3), rng);
  Tensor x({4, 2, 3, 3}), r({4, 2, 3, 3});
  fill_normal(x, 0.0f, 1.5f, rng);
  fill_normal(r, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  check_input_gradients(bn, x, r, ctx, 5e-2);
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm2d bn("bn");
  Rng rng(17);
  bn.wire(image_spec(1, 2, 2), rng);
  Tensor x({16, 1, 2, 2});
  fill_normal(x, 2.0f, 1.0f, rng);
  SubnetContext train_ctx;
  train_ctx.training = true;
  for (int i = 0; i < 200; ++i) bn.forward(x, train_ctx);
  EXPECT_NEAR(bn.running_mean()[0], 2.0f, 0.3f);
  SubnetContext eval_ctx;
  const Tensor y = bn.forward(x, eval_ctx);
  double s = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) s += y[i];
  EXPECT_NEAR(s / y.numel(), 0.0, 0.1);
}

TEST(BatchNormTest, InactiveChannelStatsNotCorrupted) {
  BatchNorm2d bn("bn");
  Rng rng(18);
  IOSpec spec = image_spec(2, 2, 2);
  (*spec.assignment)[1] = 2;  // channel 1 only in subnet 2
  bn.wire(spec, rng);
  const float mean_before = bn.running_mean()[1];
  Tensor x({4, 2, 2, 2});
  fill_normal(x, 3.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.training = true;
  ctx.subnet_id = 1;
  bn.forward(x, ctx);
  EXPECT_EQ(bn.running_mean()[1], mean_before);  // untouched
  EXPECT_NE(bn.running_mean()[0], 0.0f);
}

TEST(BatchNormTest, InactiveChannelsOutputZero) {
  BatchNorm2d bn("bn");
  Rng rng(19);
  IOSpec spec = image_spec(2, 2, 2);
  (*spec.assignment)[1] = 3;
  bn.wire(spec, rng);
  // Nonzero beta would leak through without explicit masking.
  bn.params()[1]->value.fill(0.7f);
  Tensor x({2, 2, 2, 2});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.subnet_id = 1;
  ctx.training = true;
  const Tensor y = bn.forward(x, ctx);
  for (int i = 0; i < 2; ++i) {
    for (int h = 0; h < 2; ++h) {
      for (int w = 0; w < 2; ++w) EXPECT_EQ(y.at(i, 1, h, w), 0.0f);
    }
  }
}

// ---------------------------------------------------------------------------
// Simple layers
// ---------------------------------------------------------------------------

TEST(FlattenTest, RoundTripsShapes) {
  Flatten f("flat");
  Rng rng(20);
  const IOSpec out = f.wire(image_spec(3, 4, 4), rng);
  EXPECT_TRUE(out.flat);
  EXPECT_EQ(out.units, 3);
  EXPECT_EQ(out.features_per_unit, 16);
  Tensor x({2, 3, 4, 4});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  const Tensor y = f.forward(x, ctx);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 48}));
  const Tensor back = f.backward(y, ctx);
  EXPECT_EQ(back.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(MaxPoolLayerTest, RejectsIndivisibleExtent) {
  MaxPool2d p("p", 2);
  Rng rng(21);
  EXPECT_THROW(p.wire(image_spec(1, 5, 4), rng), std::invalid_argument);
}

TEST(ReLULayerTest, GradientBlockedAtNegative) {
  ReLU relu("r");
  Rng rng(22);
  relu.wire(image_spec(1, 2, 2), rng);
  Tensor x({1, 1, 2, 2}, {-1.0f, 2.0f, -3.0f, 4.0f});
  SubnetContext ctx;
  ctx.training = true;
  relu.forward(x, ctx);
  Tensor g({1, 1, 2, 2}, {1.0f, 1.0f, 1.0f, 1.0f});
  const Tensor gx = relu.backward(g, ctx);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 1.0f);
  EXPECT_EQ(gx[2], 0.0f);
  EXPECT_EQ(gx[3], 1.0f);
}

// Bug pin: an inference forward between a training forward and its backward
// used to overwrite MaxPool2d's argmax and input shape, routing gradients
// through the eval input's maxima.
TEST(MaxPoolLayerTest, InferenceForwardKeepsTrainingBackwardState) {
  Rng rng(23);
  Tensor x1({2, 3, 4, 6});
  Tensor x2({2, 3, 4, 6});
  fill_normal(x1, 0.0f, 1.0f, rng);
  fill_normal(x2, 0.0f, 1.0f, rng);
  Tensor g({2, 3, 2, 3});
  fill_normal(g, 0.0f, 1.0f, rng);
  SubnetContext train;
  train.training = true;
  SubnetContext eval;

  MaxPool2d ref("p", 2);
  ref.wire(image_spec(3, 4, 6), rng);
  ref.forward(x1, train);
  const Tensor want = ref.backward(g, train);

  MaxPool2d pool("p", 2);
  pool.wire(image_spec(3, 4, 6), rng);
  pool.forward(x1, train);
  pool.forward(x2, eval);
  const Tensor got = pool.backward(g, train);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<std::size_t>(want.numel())),
            0);
}

/// NaN, both zeros and both infinities in every pooling-window position.
Tensor special_values() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  return Tensor({1, 2, 4, 4},
                {nan, 1.0f, -0.0f, 0.0f,   -inf, nan, inf, -1.0f,
                 0.0f, -0.0f, nan, nan,    -0.0f, 0.0f, nan, -inf,
                 inf, nan, -inf, -inf,     -2.0f, nan, -0.0f, -inf,
                 nan, nan, nan, nan,       0.0f, -0.0f, -0.0f, 0.0f});
}

TEST(ReLULayerTest, InferenceOutputBitwiseEqualsTrainingOnSpecialValues) {
  Rng rng(24);
  ReLU relu("r");
  relu.wire(image_spec(2, 4, 4), rng);
  const Tensor x = special_values();
  SubnetContext train;
  train.training = true;
  const Tensor a = relu.forward(x, train);
  const Tensor b = relu.forward(x, SubnetContext{});
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0);
  // NaN and -0 both map to +0.
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    EXPECT_FALSE(std::isnan(b[i]));
    EXPECT_FALSE(std::signbit(b[i]));
  }
}

TEST(MaxPoolLayerTest, InferenceOutputBitwiseEqualsTrainingOnSpecialValues) {
  Rng rng(25);
  // 2x2 windows over every special value, then 3x3 windows over random
  // values salted with the specials.
  Tensor mixed({2, 3, 6, 6});
  fill_normal(mixed, 0.0f, 1.0f, rng);
  const Tensor specials = special_values();
  for (std::int64_t i = 0; i < mixed.numel(); i += 3) {
    mixed[i] = specials[(i / 3) % specials.numel()];
  }
  for (const int k : {2, 3}) {
    const Tensor& x = k == 2 ? specials : mixed;
    MaxPool2d pool("p", k);
    pool.wire(image_spec(x.dim(1), x.dim(2), x.dim(3)), rng);
    SubnetContext train;
    train.training = true;
    const Tensor a = pool.forward(x, train);
    const Tensor b = pool.forward(x, SubnetContext{});
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "k=" << k;
    if (k == 2) {
      // Each window's first strict maximum in (dy, dx) order, from -inf:
      // NaN is never taken, a -0 ahead of +0 stays -0, and an all-NaN (or
      // all -inf) window gives -inf.
      const float inf = std::numeric_limits<float>::infinity();
      const Tensor want({1, 2, 2, 2},
                        {1.0f, inf, 0.0f, -inf, inf, -0.0f, 0.0f, -0.0f});
      ASSERT_EQ(b.shape(), want.shape());
      EXPECT_EQ(std::memcmp(b.data(), want.data(), sizeof(float) * 8), 0);
    }
  }
}

}  // namespace
}  // namespace stepping
