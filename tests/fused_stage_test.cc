// Fused inference stages (nn/stage.h) against the layer-by-layer walk.
//
// A fused conv stage runs Conv2d -> BatchNorm2d -> ReLU -> MaxPool2d as one
// conv2d_implicit pass whose epilogue applies BN, ReLU and the pool before
// write-back; a dense stage runs Dense -> ReLU as one GEMM. Every stage
// output that Network::forward, ladder_step, an advance() delta frame and
// a mask-down produce must be memcmp-equal to the output of the stage's
// last layer when each layer runs its own forward, on every compiled ISA
// tier at 1 and 3 threads, for inputs holding NaN, ±Inf and -0.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "models/models.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"
#include "tensor/gemm_isa.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

constexpr int kLevels = 4;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

class FusedStage : public ::testing::Test {
 protected:
  void TearDown() override {
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

/// Spread every body layer's units over the levels at random, and give the
/// biases and BN terms values that make each step of the epilogue matter
/// (negative gammas flip signs, so ReLU and the pool see both).
void scramble(Network& net, std::uint64_t seed) {
  Rng rng(seed);
  for (MaskedLayer* m : net.body_layers()) {
    if (!m->units_movable()) continue;
    for (int u = 0; u < m->num_units(); ++u) {
      m->set_unit_subnet(u, 1 + static_cast<int>(rng.uniform(0.0, kLevels - 1e-9)));
    }
  }
  for (MaskedLayer* m : net.masked_layers()) fill_normal(m->bias().value, 0.0f, 0.3f, rng);
  for (const auto& layer : net.layers()) {
    auto* bn = dynamic_cast<BatchNorm2d*>(layer.get());
    if (bn == nullptr) continue;
    std::vector<Param*> gb = bn->params();
    fill_normal(gb[0]->value, 0.5f, 1.0f, rng);
    fill_normal(gb[1]->value, 0.0f, 0.5f, rng);
    fill_normal(bn->mutable_running_mean(), 0.0f, 0.5f, rng);
    fill_uniform(bn->mutable_running_var(), 0.1f, 2.0f, rng);
  }
}

/// `batch` normal frames with NaN, ±Inf and -0 at corners, edges and inside
/// (robust_fp32_test.cc's hostile frame, per image).
Tensor hostile_batch(int batch, int c, int h, int w, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({batch, c, h, w});
  fill_normal(x, 0.0f, 1.0f, rng);
  for (int i = 0; i < batch; ++i) {
    x.at(i, 0, 0, 0) = kNaN;
    x.at(i, c - 1, h - 1, w - 1) = kInf;
    x.at(i, c - 1, h / 2, w / 2 + i) = -kInf;
    x.at(i, 0, 5, 5 + i) = kNaN;
    x.at(i, 0, h - 1, 0) = -kInf;
    for (int col = 3; col < 9; ++col) x.at(i, 0, 10, col) = -0.0f;
    for (int r = 0; r < h; ++r) x.at(i, c - 1, r, w - 3) = -0.0f;
  }
  return x;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Every layer's output at `level`, each layer running its own forward.
std::vector<Tensor> layer_walk(Network& net, const Tensor& x, int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  std::vector<Tensor> outs;
  for (const auto& layer : net.layers()) {
    outs.push_back(layer->forward(outs.empty() ? x : outs.back(), ctx));
  }
  return outs;
}

/// The same ladder step layer by layer: each layer's forward_step from its
/// own output `at_from` at level `from`.
std::vector<Tensor> layer_step_walk(Network& net, const Tensor& x,
                                    const std::vector<Tensor>& at_from,
                                    int from, int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  std::vector<Tensor> outs;
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    outs.push_back(net.layers()[i]->forward_step(i == 0 ? x : outs.back(),
                                                 at_from[i], from, ctx));
  }
  return outs;
}

/// The same mask-down layer by layer: every layer output before the head
/// masked to `level`, the head and what follows it recomputed.
std::vector<Tensor> layer_mask_walk(Network& net, const Tensor& x,
                                    std::vector<Tensor> outs, int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  const Layer* head = net.masked_layers().back();
  bool recompute = false;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Layer* layer = net.layers()[i].get();
    const IOSpec& spec = layer->out_spec();
    recompute = recompute || layer == head;
    if (recompute) {
      outs[i] = net.layers()[i]->forward(i == 0 ? x : outs[i - 1], ctx);
    } else {
      mask_inactive_units(outs[i], *spec.assignment, spec.features_per_unit, level);
    }
  }
  return outs;
}

/// A ladder state holds each stage's output, equal to the walk's output of
/// the stage's last layer, and nothing inside a stage.
void expect_stage_outputs(Network& net, const std::vector<Tensor>& got,
                          const std::vector<Tensor>& walk,
                          const std::string& what) {
  ASSERT_EQ(got.size(), walk.size()) << what;
  for (const Stage& s : net.stages()) {
    EXPECT_TRUE(same_bits(got[s.last()], walk[s.last()]))
        << what << ": stage ending at " << net.layers()[s.last()]->name();
    for (std::size_t i = s.first(); i < s.last(); ++i) {
      EXPECT_TRUE(got[i].empty()) << what << ": " << net.layers()[i]->name();
    }
  }
}

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

/// The epilogues the model zoo lacks, on 3 x 16 x 16 inputs: a stride-2
/// conv -> ReLU -> pool stage without BN, conv -> BN -> pool without ReLU,
/// and conv -> ReLU alone; then Dense -> ReLU and the head.
Network strided_net() {
  Network net;
  net.emplace<Conv2d>("s2", 6, 3, /*stride=*/2, /*pad=*/1);
  net.emplace<ReLU>("s2_relu");
  net.emplace<MaxPool2d>("s2_pool", 2);
  net.emplace<Conv2d>("c2", 5, 3);
  net.emplace<BatchNorm2d>("c2_bn");
  net.emplace<MaxPool2d>("c2_pool", 2);
  net.emplace<Conv2d>("c3", 4, 3);
  net.emplace<ReLU>("c3_relu");
  net.emplace<Flatten>("flat");
  net.emplace<Dense>("fc1", 8);
  net.emplace<ReLU>("fc1_relu");
  net.emplace<Dense>("fc2", 10);
  Rng rng(3);
  net.wire(3, 16, 16, rng);
  return net;
}

struct Case {
  std::string name;
  Network net;
};

std::vector<Case> cases() {
  const ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15,
                       .seed = 11};
  std::vector<Case> out;
  out.push_back({"lenet3c1l", build_lenet3c1l(mc)});
  out.push_back({"lenet5", build_lenet5(mc)});
  out.push_back({"mobilenet_small", build_mobilenet_small(mc)});
  out.push_back({"strided", strided_net()});
  for (std::size_t i = 0; i < out.size(); ++i) scramble(out[i].net, 40 + i);
  return out;
}

TEST_F(FusedStage, PartitionGroupsConvBlocksAndDenseRelu) {
  for (Case& c : cases()) {
    std::vector<std::string> got;
    for (const Stage& s : c.net.stages()) {
      std::string names;
      for (const Layer* l : s.layers()) names += (names.empty() ? "" : "+") + l->name();
      got.push_back(names);
    }
    std::vector<std::string> want;
    if (c.name == "lenet3c1l") {
      want = {"c1+c1_bn+c1_relu+p1", "c2+c2_bn+c2_relu+p2",
              "c3+c3_bn+c3_relu+p3", "flat", "fc"};
    } else if (c.name == "lenet5") {
      want = {"c1+c1_bn+c1_relu+p1", "c2+c2_bn+c2_relu+p2", "flat",
              "fc1+fc1_relu", "fc2+fc2_relu", "fc3"};
    } else if (c.name == "mobilenet_small") {
      want = {"stem+stem_bn+stem_relu"};
      for (int s = 1; s <= 3; ++s) {
        const std::string t = "ds" + std::to_string(s);
        for (const std::string& l : {t + "_dw", t + "_dw_bn", t + "_dw_relu"}) {
          want.push_back(l);
        }
        want.push_back(t + "_pw+" + t + "_pw_bn+" + t + "_pw_relu+p" +
                       std::to_string(s));
      }
      want.push_back("flat");
      want.push_back("fc");
    } else {
      want = {"s2+s2_relu+s2_pool", "c2+c2_bn+c2_pool", "c3+c3_relu", "flat",
              "fc1+fc1_relu", "fc2"};
    }
    EXPECT_EQ(got, want) << c.name;
  }
}

TEST_F(FusedStage, MatchesLayerWalkEverywhere) {
  for (Case& c : cases()) {
    Network& net = c.net;
    for (const int batch : {1, 3}) {
      const Tensor x = hostile_batch(batch, net.input_channels(), net.input_h(),
                                     net.input_w(), 7 + batch);
      // The same batch with a few pixels changed, in tiles (of edge 3)
      // spanning rows [6, 9) and columns [6, 12).
      Tensor moved = x;
      for (int i = 0; i < batch; ++i) {
        moved.at(i, 0, 7, 7) = kNaN;
        moved.at(i, net.input_channels() - 1, 8, 10) = -kInf;
        moved.at(i, 0, 6, 8) = -0.0f;
      }
      at_every_tier_and_thread_count([&](const std::string& where) {
        const std::string tag = c.name + " batch=" + std::to_string(batch) + " " + where;
        std::vector<std::vector<Tensor>> walk(kLevels + 1), walk_moved(kLevels + 1);
        for (int level = 1; level <= kLevels; ++level) {
          walk[level] = layer_walk(net, x, level);
          walk_moved[level] = layer_walk(net, moved, level);
        }
        const auto sig = network_signature(net);
        for (int level = 1; level <= kLevels; ++level) {
          const std::string lt = tag + " L" + std::to_string(level);
          const std::vector<Tensor>& want = walk[level];
          // Network::forward, and each stage's forward chained as it runs.
          SubnetContext ctx;
          ctx.subnet_id = level;
          EXPECT_TRUE(same_bits(net.forward(x, ctx), want.back())) << lt << " forward";
          Tensor cur = x;
          for (const Stage& s : net.stages()) {
            cur = s.forward(cur, ctx);
            EXPECT_TRUE(same_bits(cur, want[s.last()]))
                << lt << " stage forward ending at " << net.layers()[s.last()]->name();
          }
          // ladder_step from scratch and from every lower level.
          std::vector<Tensor> outs;
          ladder_step(net, x, outs, 0, level);
          expect_stage_outputs(net, outs, want, lt + " ladder_step from 0");
          for (int from = 1; from < level; ++from) {
            ladder_step(net, x, outs, 0, from);
            ladder_step(net, x, outs, from, level);
            expect_stage_outputs(net, outs, want,
                                 lt + " ladder_step from L" + std::to_string(from));
            const std::vector<Tensor> stepped =
                layer_step_walk(net, x, walk[from], from, level);
            for (std::size_t i = 0; i < stepped.size(); ++i) {
              EXPECT_TRUE(same_bits(stepped[i], want[i]))
                  << lt << " forward_step from L" << from << " at "
                  << net.layers()[i]->name();
            }
          }
          // A delta frame at this level (the dirty tiles' rectangle is not
          // pool-aligned), then a mask-down to every lower level.
          LadderState st;
          advance(net, st, x, level, /*tile=*/3, sig);
          const LadderResult r = advance(net, st, moved, level, /*tile=*/3, sig);
          EXPECT_FALSE(r.cold) << lt;
          EXPECT_LT(r.macs, r.full_macs) << lt << " delta frame";
          std::vector<Tensor> state = walk_moved[level];
          expect_stage_outputs(net, st.layer_outputs, state, lt + " delta frame");
          for (int down = level - 1; down >= 1; --down) {
            advance(net, st, moved, down, /*tile=*/3, sig);
            state = layer_mask_walk(net, moved, std::move(state), down);
            expect_stage_outputs(net, st.layer_outputs, state,
                                 lt + " mask down to L" + std::to_string(down));
          }
        }
      });
    }
  }
}

TEST_F(FusedStage, DeltaChargesWholePoolWindows) {
  // One changed pixel at an odd row and column of LeNet-3C1L's input: the
  // fused c1 stage recomputes the 2 x 2 windows over the conv rows and
  // columns it reaches, so a delta frame is charged c1's active weights
  // times those pool-aligned positions, plus the later stages.
  const ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15,
                       .seed = 11};
  Network net = build_lenet3c1l(mc);
  scramble(net, 5);
  Tensor x = hostile_batch(1, 3, 32, 32, 9);
  const auto sig = network_signature(net);
  LadderState st;
  advance(net, st, x, kLevels, /*tile=*/1, sig);
  x.at(0, 1, 13, 17) = 2.0f;
  const LadderResult r = advance(net, st, x, kLevels, /*tile=*/1, sig);
  const Stage& c1 = net.stages()[0];
  // 5x5, pad 2: conv rows [11, 16), columns [15, 20) -> windows rows
  // [10, 16), columns [14, 20) -> pooled rows [5, 8), columns [7, 10).
  const SpatialRegion pooled = c1.propagate_dirty_region({13, 14, 17, 18});
  EXPECT_EQ(pooled, (SpatialRegion{5, 8, 7, 10}));
  EXPECT_EQ(c1.delta_macs(pooled, kLevels),
            c1.masked()->active_weights(kLevels) * 6 * 6);
  EXPECT_GE(r.macs, c1.delta_macs(pooled, kLevels));
  EXPECT_LT(r.macs, r.full_macs);
}

}  // namespace
}  // namespace stepping
