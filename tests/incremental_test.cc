#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/macs.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "tensor/ops.h"

namespace stepping {
namespace {

/// A network with a hand-built nested structure across 3 subnets.
Network nested_net() {
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15};
  Network net = build_lenet3c1l(mc);
  Rng rng(11);
  for (MaskedLayer* m : net.body_layers()) {
    for (int u = 0; u < m->num_units(); ++u) {
      m->set_unit_subnet(u, 1 + (u % 3));
    }
  }
  return net;
}

Tensor random_input(int n, Rng& rng) {
  Tensor x({n, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  return x;
}

TEST(Incremental, StepUpBitIdenticalToFromScratch) {
  Network net = nested_net();
  Rng rng(1);
  const Tensor x = random_input(4, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 1);
  ex.run(x, 2);
  const Tensor inc = ex.run(x, 3);

  SubnetContext ctx;
  ctx.subnet_id = 3;
  const Tensor scratch = net.forward(x, ctx);
  ASSERT_EQ(inc.shape(), scratch.shape());
  for (std::int64_t i = 0; i < inc.numel(); ++i) {
    EXPECT_EQ(inc[i], scratch[i]) << "logit index " << i;
  }
}

TEST(Incremental, EverySubnetLevelMatchesDirectEvaluation) {
  Network net = nested_net();
  Rng rng(2);
  const Tensor x = random_input(2, rng);
  IncrementalExecutor ex(net);
  for (int sub = 1; sub <= 3; ++sub) {
    const Tensor inc = ex.run(x, sub);
    SubnetContext ctx;
    ctx.subnet_id = sub;
    const Tensor direct = net.forward(x, ctx);
    for (std::int64_t i = 0; i < inc.numel(); ++i) {
      EXPECT_EQ(inc[i], direct[i]) << "subnet " << sub << " logit " << i;
    }
  }
}

TEST(Incremental, StepMacsLessThanFullMacs) {
  Network net = nested_net();
  Rng rng(3);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 1);
  ex.run(x, 3);
  EXPECT_LT(ex.last_step_macs(), ex.last_full_macs());
  EXPECT_GT(ex.last_step_macs(), 0);
}

TEST(Incremental, CumulativeStepMacsMatchSubnetMacsPlusHeadRecomputes) {
  Network net = nested_net();
  Rng rng(4);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  std::int64_t cumulative = 0;
  for (int sub = 1; sub <= 3; ++sub) {
    ex.run(x, sub);
    cumulative += ex.last_step_macs();
  }
  // Stepping 1->2->3 recomputes only the head at each level; body units are
  // computed exactly once.
  auto* head = net.masked_layers().back();
  const std::int64_t head_extra =
      head->subnet_macs(1) + head->subnet_macs(2);
  EXPECT_EQ(cumulative, subnet_macs(net, 3) + head_extra);
}

TEST(Incremental, FirstRunMacsEqualSubnetMacs) {
  Network net = nested_net();
  Rng rng(5);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 2);
  EXPECT_EQ(ex.last_step_macs(), subnet_macs(net, 2));
  EXPECT_EQ(ex.last_full_macs(), subnet_macs(net, 2));
}

TEST(Incremental, NewInputResetsCache) {
  Network net = nested_net();
  Rng rng(6);
  const Tensor x1 = random_input(1, rng);
  const Tensor x2 = random_input(1, rng);
  IncrementalExecutor ex(net);
  ex.run(x1, 2);
  EXPECT_EQ(ex.cached_subnet(), 2);
  const Tensor y = ex.run(x2, 2);  // different input: transparent reset
  SubnetContext ctx;
  ctx.subnet_id = 2;
  const Tensor direct = net.forward(x2, ctx);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], direct[i]);
}

TEST(Incremental, FingerprintTreatsEqualContentAsSameInput) {
  // The executor keeps a shape + FNV-1a fingerprint, not an input copy
  // (ISSUE 2 satellite): a *different tensor object* with identical bytes
  // must still hit the cache and pay only the incremental step.
  Network net = nested_net();
  Rng rng(21);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 1);
  const Tensor same_bytes = x;  // deep copy, equal content
  const Tensor y = ex.run(same_bytes, 2);
  EXPECT_LT(ex.last_step_macs(), ex.last_full_macs())
      << "equal-content input should step, not restart";
  SubnetContext ctx;
  ctx.subnet_id = 2;
  const Tensor direct = net.forward(x, ctx);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], direct[i]);
}

TEST(Incremental, FingerprintDetectsSingleElementChange) {
  Network net = nested_net();
  Rng rng(22);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 2);
  Tensor x2 = x;
  x2[x2.numel() / 2] += 0.5f;  // one element flips the hash
  const Tensor y = ex.run(x2, 2);
  EXPECT_EQ(ex.last_step_macs(), ex.last_full_macs())
      << "changed input must restart from scratch";
  SubnetContext ctx;
  ctx.subnet_id = 2;
  const Tensor direct = net.forward(x2, ctx);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], direct[i]);
}

TEST(Incremental, StepDownMatchesDirectEvaluation) {
  Network net = nested_net();
  Rng rng(7);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 3);
  const Tensor y1 = ex.run(x, 1);  // step DOWN: masked reuse + head recompute
  SubnetContext ctx;
  ctx.subnet_id = 1;
  const Tensor direct = net.forward(x, ctx);
  for (std::int64_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], direct[i]);
}

TEST(Incremental, StepDownCostsOnlyTheHead) {
  // Paper §II: dynamic subnet REDUCTION also reuses the larger subnet's
  // intermediate results — only the classifier must be re-evaluated.
  Network net = nested_net();
  Rng rng(17);
  const Tensor x = random_input(2, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 3);
  ex.run(x, 2);
  auto* head = net.masked_layers().back();
  EXPECT_EQ(ex.last_step_macs(), head->subnet_macs(2));
  EXPECT_EQ(ex.cached_subnet(), 2);
}

TEST(Incremental, StepDownThenUpStaysBitExact) {
  // Oscillating budgets: 1 -> 3 -> 1 -> 2 must all match direct evaluation.
  Network net = nested_net();
  Rng rng(19);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  for (const int sub : {1, 3, 1, 2, 3, 2}) {
    const Tensor y = ex.run(x, sub);
    SubnetContext ctx;
    ctx.subnet_id = sub;
    const Tensor direct = net.forward(x, ctx);
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      ASSERT_EQ(y[i], direct[i]) << "subnet " << sub;
    }
  }
}

TEST(Incremental, RepeatedRunSameSubnetReturnsCachedLogitsAtZeroMacs) {
  Network net = nested_net();
  Rng rng(8);
  const Tensor x = random_input(1, rng);
  IncrementalExecutor ex(net);
  ex.run(x, 2);
  const Tensor y = ex.run(x, 2);
  EXPECT_EQ(ex.last_step_macs(), 0);
  SubnetContext ctx;
  ctx.subnet_id = 2;
  const Tensor direct = net.forward(x, ctx);
  ASSERT_EQ(y.shape(), direct.shape());
  EXPECT_EQ(0, std::memcmp(y.data(), direct.data(),
                           sizeof(float) * static_cast<std::size_t>(y.numel())));
}

TEST(Incremental, RunAfterWeightUpdateMatchesForward) {
  // A weight update between runs (an optimizer step scales a conv's weights
  // and bumps its Param::version) must not be answered from the stale
  // ladder: stepping up, repeating the level and stepping down all match
  // forward() under the new weights.
  const struct { int before, after; } cases[] = {{1, 2}, {2, 2}, {3, 1}};
  for (const auto& c : cases) {
    Network net = nested_net();
    Rng rng(31);
    const Tensor x = random_input(2, rng);
    IncrementalExecutor ex(net);
    ex.run(x, c.before);
    Conv2d* conv = nullptr;
    for (MaskedLayer* m : net.masked_layers()) {
      if ((conv = dynamic_cast<Conv2d*>(m)) != nullptr) break;
    }
    ASSERT_NE(conv, nullptr);
    Param* w = conv->params().front();
    for (std::int64_t i = 0; i < w->value.numel(); ++i) w->value[i] *= 1.5f;
    ++w->version;
    const Tensor y = ex.run(x, c.after);
    SubnetContext ctx;
    ctx.subnet_id = c.after;
    const Tensor direct = net.forward(x, ctx);
    ASSERT_EQ(y.shape(), direct.shape());
    EXPECT_EQ(0, std::memcmp(y.data(), direct.data(),
                             sizeof(float) * static_cast<std::size_t>(y.numel())))
        << "L" << c.before << " -> weight update -> L" << c.after;
  }
}

// ---------------------------------------------------------------------------
// MAC bookkeeping: step_weights() applies the structural rule once per
// (unit, column group); pinned against the per-weight definition.
// ---------------------------------------------------------------------------

/// The per-weight definition of MaskedLayer::step_weights(from, to).
std::int64_t per_weight_step(const MaskedLayer& m, int from, int to) {
  std::int64_t count = 0;
  for (int u = 0; u < m.num_units(); ++u) {
    const int sv = m.unit_subnet()[static_cast<std::size_t>(u)];
    if (!m.is_head() && (sv <= from || sv > to)) continue;
    for (int c = 0; c < m.num_cols(); ++c) {
      if (!m.prune_mask()[static_cast<std::size_t>(u) * m.num_cols() + c]) continue;
      const int su = m.in_subnet()[static_cast<std::size_t>(m.in_unit_of(u, c))];
      if (su > to) continue;                 // producer absent from `to`
      if (!m.is_head() && su > sv) continue;  // structural rule
      ++count;
    }
  }
  return count;
}

constexpr int kMacLevels = 4;

AssignmentPtr shuffled_assignment(int n, Rng& rng) {
  auto a = std::make_shared<Assignment>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) (*a)[static_cast<std::size_t>(i)] = 1 + i % kMacLevels;
  rng.shuffle(*a);
  return a;
}

/// Shuffle the units' levels (when movable) and prune about 30 % of the
/// weights; prune-mask bytes other than 0 and 1 count as kept.
void scramble(MaskedLayer& m, Rng& rng) {
  if (m.units_movable()) {
    const AssignmentPtr a = shuffled_assignment(m.num_units(), rng);
    for (int u = 0; u < m.num_units(); ++u) {
      m.set_unit_subnet(u, (*a)[static_cast<std::size_t>(u)]);
    }
  }
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(m.num_units()) *
                                 m.num_cols());
  for (auto& b : mask) {
    const double r = rng.uniform(0.0, 1.0);
    b = r < 0.3 ? 0 : (r < 0.4 ? 7 : 1);
  }
  m.set_prune_mask(mask);
}

void expect_step_weights_match(MaskedLayer& m, const std::string& what) {
  for (const bool head : {false, true}) {
    m.set_head(head);
    for (int to = 1; to <= kMacLevels; ++to) {
      EXPECT_EQ(m.active_weights(to), per_weight_step(m, 0, to))
          << what << (head ? " head" : "") << " L" << to;
      for (int from = 0; from <= to; ++from) {
        EXPECT_EQ(m.step_weights(from, to), per_weight_step(m, from, to))
            << what << (head ? " head" : "") << " " << from << "->" << to;
      }
    }
  }
  m.set_head(false);
}

TEST(Incremental, StepWeightsMatchThePerWeightCount) {
  Rng rng(41);
  for (int trial = 0; trial < 3; ++trial) {
    IOSpec spatial;
    spatial.units = 7;
    spatial.h = 6;
    spatial.w = 5;
    spatial.assignment = shuffled_assignment(7, rng);

    Conv2d conv("c", 9, 3);
    conv.set_out_spec(conv.wire(spatial, rng));
    scramble(conv, rng);
    expect_step_weights_match(conv, "conv");

    // Depthwise unit u reads only input unit u, whatever the column.
    DepthwiseConv2d dw("dw", 3);
    dw.set_out_spec(dw.wire(spatial, rng));
    scramble(dw, rng);
    expect_step_weights_match(dw, "depthwise");

    IOSpec flat;
    flat.units = 5;
    flat.features_per_unit = 3;
    flat.flat = true;
    flat.assignment = shuffled_assignment(5, rng);
    Dense fc("fc", 6);
    fc.set_out_spec(fc.wire(flat, rng));
    scramble(fc, rng);
    expect_step_weights_match(fc, "dense");
  }
  // And through a whole network: ladder_step_macs sums the layers' counts.
  Network net = nested_net();
  for (MaskedLayer* m : net.masked_layers()) {
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(m->num_units()) *
                                   m->num_cols());
    for (auto& b : mask) b = rng.uniform(0.0, 1.0) < 0.3 ? 0 : 1;
    m->set_prune_mask(mask);
  }
  for (int to = 1; to <= 3; ++to) {
    for (int from = 0; from <= to; ++from) {
      std::int64_t want = 0;
      for (MaskedLayer* m : net.masked_layers()) {
        want += per_weight_step(*m, from, to) * m->macs_per_weight();
      }
      EXPECT_EQ(ladder_step_macs(net, from, to), want) << from << "->" << to;
    }
  }
}

}  // namespace
}  // namespace stepping
