// fp32 behaviour on NaN, ±Inf and -0 inputs.
//
// The ladder's exact-reuse contract has to hold for any bytes a caller
// sends, not only for finite ones: ladder_step from every lower level,
// Network::forward, stream_delta_forward (cold and delta frames) and a
// step down through a stream or an IncrementalExecutor must agree bit for
// bit at every level, in every layer's output. The tests
// also pin what those values are: NaN reaches only the conv outputs whose
// window reads a non-finite input, ReLU maps NaN to +0, and MaxPool never
// selects NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "nn/simple_layers.h"
#include "stream/stream.h"
#include "tensor/ops.h"

namespace stepping {
namespace {

constexpr int kLevels = 4;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// LeNet-3C1L with its units spread over four levels.
Network four_level_lenet() {
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15};
  Network net = build_lenet3c1l(mc);
  for (MaskedLayer* m : net.body_layers()) {
    for (int u = 0; u < m->num_units(); ++u) m->set_unit_subnet(u, 1 + u % kLevels);
  }
  return net;
}

/// A normal frame with NaN, ±Inf and -0 at corners, edges and inside.
Tensor hostile_frame(std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({1, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  x.at(0, 0, 0, 0) = kNaN;
  x.at(0, 1, 31, 31) = kInf;
  x.at(0, 2, 15, 16) = -kInf;
  x.at(0, 1, 5, 5) = kNaN;
  x.at(0, 0, 31, 0) = -kInf;
  for (int c = 3; c < 9; ++c) x.at(0, 0, 10, c) = -0.0f;
  for (int r = 0; r < 32; ++r) x.at(0, 2, r, 20) = -0.0f;
  return x;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

Tensor forward_at(Network& net, const Tensor& x, int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  return net.forward(x, ctx);
}

/// Every layer output of a from-scratch ladder at `level` (stage outputs
/// only; the entries inside a fused stage are empty).
std::vector<Tensor> cold_ladder(Network& net, const Tensor& x, int level) {
  std::vector<Tensor> outs;
  ladder_step(net, x, outs, 0, level);
  return outs;
}

/// Every layer's output at `level`, each layer run by its own forward.
std::vector<Tensor> layer_walk(Network& net, const Tensor& x, int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  std::vector<Tensor> outs;
  for (const auto& layer : net.layers()) {
    outs.push_back(layer->forward(outs.empty() ? x : outs.back(), ctx));
  }
  return outs;
}

void expect_same_ladder(const std::vector<Tensor>& got,
                        const std::vector<Tensor>& want, Network& net,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i], want[i]))
        << what << ": layer " << net.layers()[i]->name();
  }
}

TEST(RobustFp32, NonFiniteInputsAgreeBitwiseAcrossLadderForwardAndStream) {
  Network net = four_level_lenet();
  const Tensor x = hostile_frame(3);
  for (int level = 1; level <= kLevels; ++level) {
    const std::string lt = "L" + std::to_string(level);
    const std::vector<Tensor> want = cold_ladder(net, x, level);
    EXPECT_TRUE(same_bits(forward_at(net, x, level), want.back()))
        << lt << " Network::forward";
    for (int from = 1; from < level; ++from) {
      std::vector<Tensor> outs = cold_ladder(net, x, from);
      ladder_step(net, x, outs, from, level);
      expect_same_ladder(outs, want, net,
                         lt + " ladder_step from L" + std::to_string(from));
    }
  }

  // Streams: a cold frame, a delta frame that moves the non-finite pixels,
  // and a delta frame that also steps up a level.
  const auto sig = stream::network_signature(net);
  stream::StreamConfig cfg;
  cfg.tile = 8;
  for (int level = 1; level < kLevels; ++level) {
    const std::string lt = "stream L" + std::to_string(level);
    stream::StreamState st;
    Tensor frame = x;
    stream::StreamResult r = stream_delta_forward(net, st, frame, level, cfg, sig);
    EXPECT_TRUE(same_bits(r.logits, forward_at(net, frame, level))) << lt << " cold";
    frame.at(0, 0, 0, 0) = 0.5f;
    frame.at(0, 2, 20, 21) = kNaN;
    frame.at(0, 0, 22, 23) = -kInf;
    frame.at(0, 1, 21, 22) = -0.0f;
    r = stream_delta_forward(net, st, frame, level, cfg, sig);
    EXPECT_FALSE(r.cold) << lt;
    EXPECT_TRUE(same_bits(r.logits, forward_at(net, frame, level))) << lt << " delta";
    expect_same_ladder(st.layer_outputs, cold_ladder(net, frame, level), net,
                       lt + " delta state");
    frame.at(0, 1, 2, 30) = kInf;
    r = stream_delta_forward(net, st, frame, level + 1, cfg, sig);
    EXPECT_TRUE(same_bits(r.logits, forward_at(net, frame, level + 1)))
        << lt << " delta + step up";
  }
}

TEST(RobustFp32, NonFiniteInputsMaskDownBitwiseThroughStreamAndExecutor) {
  // The hostile frame at L4, then L3, L2 and L1 on the same input: each step
  // masks the cached ladder down, and every layer output must equal a cold
  // ladder at that level.
  Network net = four_level_lenet();
  const Tensor x = hostile_frame(5);
  const auto sig = stream::network_signature(net);
  stream::StreamConfig cfg;
  cfg.tile = 8;
  stream::StreamState st;
  IncrementalExecutor ex(net);
  for (int level = kLevels; level >= 1; --level) {
    const std::string lt = "mask down to L" + std::to_string(level);
    const std::vector<Tensor> want = cold_ladder(net, x, level);
    const stream::StreamResult r = stream_delta_forward(net, st, x, level, cfg, sig);
    EXPECT_EQ(r.cold, level == kLevels) << lt;
    expect_same_ladder(st.layer_outputs, want, net, lt + " stream");
    ex.run(x, level);
    expect_same_ladder(ex.state().layer_outputs, want, net, lt + " executor");
  }
}

TEST(RobustFp32, NanStaysInTheConvOutputsThatReadItAndReluZeroesIt) {
  Network net = four_level_lenet();
  const Tensor x = hostile_frame(4);
  const auto* c1 = dynamic_cast<const Conv2d*>(net.layers()[0].get());
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(dynamic_cast<const ReLU*>(net.layers()[2].get()), nullptr);
  const Conv2dGeometry& g = c1->geometry();
  for (int level = 1; level <= kLevels; ++level) {
    // The conv and ReLU planes live inside the fused c1 stage, so they come
    // from a layer walk; the ladder keeps the stage's pooled output, which
    // must be the walk's p1 output.
    const std::vector<Tensor> outs = layer_walk(net, x, level);
    EXPECT_TRUE(same_bits(cold_ladder(net, x, level)[3], outs[3]))
        << "L" << level << " c1 stage output vs the walk's p1";
    const Tensor& conv = outs[0];
    const Tensor& relu = outs[2];
    int nans = 0;
    for (int u = 0; u < conv.dim(1); ++u) {
      for (int r = 0; r < conv.dim(2); ++r) {
        for (int c = 0; c < conv.dim(3); ++c) {
          bool window_finite = true;
          for (int ch = 0; ch < g.in_c; ++ch) {
            for (int kh = 0; kh < g.kernel; ++kh) {
              for (int kw = 0; kw < g.kernel; ++kw) {
                const int iy = r + kh - g.pad, ix = c + kw - g.pad;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
                if (!std::isfinite(x.at(0, ch, iy, ix))) window_finite = false;
              }
            }
          }
          const float v = conv.at(0, u, r, c);
          if (window_finite) {
            EXPECT_TRUE(std::isfinite(v)) << "L" << level << " unit " << u
                                          << " at (" << r << "," << c << ")";
          }
          if (std::isnan(v)) ++nans;
          // BN keeps NaN NaN; ReLU turns it into +0 and never outputs NaN.
          const float y = relu.at(0, u, r, c);
          EXPECT_FALSE(std::isnan(y));
          if (std::isnan(v)) {
            EXPECT_EQ(std::signbit(y), false);
            EXPECT_EQ(y, 0.0f);
          }
        }
      }
    }
    EXPECT_GT(nans, 0) << "L" << level << ": the NaN pixels reach c1";
    for (std::size_t i = 3; i < outs.size() - 1; ++i) {
      if (dynamic_cast<const ReLU*>(net.layers()[i].get()) == nullptr) continue;
      for (std::int64_t j = 0; j < outs[i].numel(); ++j) {
        ASSERT_FALSE(std::isnan(outs[i][j])) << net.layers()[i]->name();
      }
    }
  }
}

TEST(RobustFp32, MaxPoolNeverSelectsNan) {
  Tensor x({1, 1, 2, 6});
  const float vals[12] = {kNaN, 1.0f, -2.0f, kNaN, kNaN, kNaN,
                          -3.0f, kNaN, kNaN, -0.0f, kNaN, kNaN};
  std::memcpy(x.data(), vals, sizeof(vals));
  Tensor y;
  maxpool_forward(x, 2, y);
  EXPECT_EQ(y[0], 1.0f);       // NaN, 1, -3, NaN
  EXPECT_EQ(y[1], -0.0f);      // -2, NaN, NaN, -0
  EXPECT_TRUE(std::signbit(y[1]));
  EXPECT_EQ(y[2], -kInf);      // an all-NaN window yields the scan's start
}

}  // namespace
}  // namespace stepping
