// Dense inference blocks (nn/dense.h): a Dense runs one block per
// joining subnet, gathered from the live weights on every call, over the
// columns the block's units read.
//
// Nothing about a block outlives the call, so every writer of the weights
// or of the structure is seen by the next inference pass: a producer's
// set_unit_subnet, the prune-mask writers, set_head, an SGD step,
// load_network and an in-place write to weight().value with no version
// bump. After each, the logits at every level must be memcmp-equal to a
// freshly cloned network's, and must differ from the logits before the
// edit (so a stale operand could not pass). An Inf in an input a unit
// cannot read never reaches it, a subnet id below 1 is refused, and an id
// above every assigned subnet runs as that subnet.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/serialize.h"
#include "models/models.h"
#include "nn/dense.h"
#include "nn/sgd.h"

namespace stepping {
namespace {

constexpr int kLevels = 4;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// LeNet-5 (three Dense layers) with each body layer's units spread over
/// every level in shuffled order, and nonzero biases.
Network make_net(std::uint64_t seed) {
  const ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.7,
                       .seed = seed};
  Network net = build_lenet5(mc);
  Rng rng(seed + 100);
  for (MaskedLayer* m : net.body_layers()) {
    std::vector<int> levels(static_cast<std::size_t>(m->num_units()));
    for (std::size_t u = 0; u < levels.size(); ++u) {
      levels[u] = 1 + static_cast<int>(u % kLevels);
    }
    rng.shuffle(levels);
    for (int u = 0; u < m->num_units(); ++u) {
      m->set_unit_subnet(u, levels[static_cast<std::size_t>(u)]);
    }
  }
  for (MaskedLayer* m : net.masked_layers()) fill_normal(m->bias().value, 0.0f, 0.3f, rng);
  return net;
}

Tensor input(const Network& net, int batch, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({batch, net.input_channels(), net.input_h(), net.input_w()});
  fill_normal(x, 0.0f, 1.0f, rng);
  return x;
}

std::vector<Tensor> all_levels(Network& net, const Tensor& x) {
  std::vector<Tensor> out;
  for (int level = 1; level <= kLevels; ++level) {
    SubnetContext ctx;
    ctx.subnet_id = level;
    out.push_back(net.forward(x, ctx));
  }
  return out;
}

Dense* dense_named(Network& net, const std::string& name) {
  for (const auto& layer : net.layers()) {
    if (layer->name() == name) return dynamic_cast<Dense*>(layer.get());
  }
  return nullptr;
}

/// After `prepare`, runs every level, applies `edit`, and checks that the
/// logits moved and that they equal a fresh clone's at every level.
void check_edit(const std::string& what, const std::function<void(Network&)>& edit,
                const std::function<void(Network&)>& prepare = {}) {
  Network net = make_net(21);
  if (prepare) prepare(net);
  const Tensor x = input(net, 2, 5);
  const std::vector<Tensor> before = all_levels(net, x);
  edit(net);
  const std::vector<Tensor> after = all_levels(net, x);
  bool moved = false;
  for (int l = 0; l < kLevels; ++l) moved = moved || !same_bits(before[l], after[l]);
  EXPECT_TRUE(moved) << what << ": the edit left every level's logits as they were";
  Network fresh = net.clone();
  const std::vector<Tensor> want = all_levels(fresh, x);
  for (int l = 0; l < kLevels; ++l) {
    EXPECT_TRUE(same_bits(after[l], want[l])) << what << " L" << l + 1;
  }
}

TEST(DenseBlock, FollowsProducerUnitMove) {
  // fc1 is fc2's producer: a fc1 unit moving down to level 1 becomes a
  // column fc2's level-1 units read.
  check_edit("producer set_unit_subnet", [](Network& net) {
    Dense* fc1 = dense_named(net, "fc1");
    ASSERT_NE(fc1, nullptr);
    int moved = 0;
    for (int u = 0; u < fc1->num_units() && moved < 3; ++u) {
      if (fc1->unit_subnet()[static_cast<std::size_t>(u)] > 1) {
        fc1->set_unit_subnet(u, 1);
        ++moved;
      }
    }
    ASSERT_GT(moved, 0);
  });
}

TEST(DenseBlock, FollowsPruneMaskWriters) {
  check_edit("set_prune_mask", [](Network& net) {
    Dense* fc2 = dense_named(net, "fc2");
    std::vector<std::uint8_t> mask = fc2->prune_mask();
    for (std::size_t i = 0; i < mask.size(); i += 3) mask[i] = 0;
    fc2->set_prune_mask(mask);
  });
  check_edit("apply_magnitude_prune", [](Network& net) {
    dense_named(net, "fc3")->apply_magnitude_prune(0.05f);
  });
  check_edit(
      "clear_prune_mask",
      [](Network& net) { dense_named(net, "fc1")->clear_prune_mask(); },
      [](Network& net) {
        Dense* fc1 = dense_named(net, "fc1");
        std::vector<std::uint8_t> mask = fc1->prune_mask();
        for (std::size_t i = 1; i < mask.size(); i += 2) mask[i] = 0;
        fc1->set_prune_mask(mask);
      });
}

TEST(DenseBlock, FollowsSetHead) {
  // fc2 as a head reads every input its level holds and computes every unit.
  check_edit("set_head", [](Network& net) { dense_named(net, "fc2")->set_head(true); });
}

TEST(DenseBlock, FollowsSgdStep) {
  check_edit("sgd step", [](Network& net) {
    Rng rng(3);
    std::vector<Param*> params;
    for (MaskedLayer* m : net.masked_layers()) {
      for (Param* p : m->params()) {
        p->grad = Tensor(p->value.shape());
        fill_normal(p->grad, 0.1f, 0.5f, rng);
        params.push_back(p);
      }
    }
    Sgd sgd(SgdConfig{.lr = 0.05});
    sgd.step(params);
  });
}

TEST(DenseBlock, FollowsLoadNetwork) {
  check_edit("load_network", [](Network& net) {
    Network donor = make_net(77);
    std::stringstream buf;
    ASSERT_TRUE(save_network(donor, buf));
    ASSERT_TRUE(load_network(net, buf));
  });
}

TEST(DenseBlock, FollowsInPlaceWeightWriteWithoutVersionBump) {
  check_edit("weight().value write", [](Network& net) {
    Tensor& w = dense_named(net, "fc2")->weight().value;
    for (std::int64_t i = 0; i < w.numel(); i += 5) w.data()[i] *= -2.0f;
  });
}

TEST(DenseBlock, InfInAnUnreadInputNeverReachesAUnit) {
  // A body Dense whose input units 0..3 are level 1 and 4..7 level 2; its
  // units 0..1 are level 1. Those units read only inputs 0..3 at every
  // level, so Inf and NaN in inputs 4..7 (which a ladder state at level 1
  // would hold as zeros) leave them finite: equal to the pass over zeroed
  // inputs at level 1, and at level 2 to what a step from level 1 reuses.
  Dense d("d", 4);
  Rng rng(4);
  IOSpec in;
  in.units = 8;
  in.features_per_unit = 1;
  in.flat = true;
  in.assignment = std::make_shared<Assignment>(Assignment{1, 1, 1, 1, 2, 2, 2, 2});
  d.set_out_spec(d.wire(in, rng));
  d.set_unit_subnet(2, 2);
  d.set_unit_subnet(3, 2);
  Tensor x({1, 8});
  fill_normal(x, 0.0f, 1.0f, rng);
  Tensor zeroed = x;
  for (int c = 4; c < 8; ++c) zeroed.at(0, c) = 0.0f;
  x.at(0, 4) = std::numeric_limits<float>::infinity();
  x.at(0, 6) = std::numeric_limits<float>::quiet_NaN();
  SubnetContext ctx;
  ctx.subnet_id = 1;
  const Tensor y = d.forward(x, ctx);
  EXPECT_TRUE(same_bits(y, d.forward(zeroed, ctx)));
  for (int u = 0; u < 2; ++u) EXPECT_TRUE(std::isfinite(y.at(0, u))) << u;
  ctx.subnet_id = 2;
  const Tensor cold = d.forward(x, ctx);
  EXPECT_TRUE(same_bits(cold, d.forward_step(x, y, 1, ctx)));
  for (int u = 0; u < 2; ++u) {
    const float a = cold.at(0, u), b = y.at(0, u);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0) << u;
  }
}

/// A Dense over 8 inputs (0..3 level 1, 4..7 level 2) with units 0..1 at
/// level 1 and 2..3 at level 2; a head when `head`.
Dense two_level_dense(bool head) {
  Dense d("d", 4);
  Rng rng(6);
  IOSpec in;
  in.units = 8;
  in.features_per_unit = 1;
  in.flat = true;
  in.assignment = std::make_shared<Assignment>(Assignment{1, 1, 1, 1, 2, 2, 2, 2});
  d.set_out_spec(d.wire(in, rng));
  d.set_unit_subnet(2, 2);
  d.set_unit_subnet(3, 2);
  d.set_head(head);
  fill_normal(d.bias().value, 0.0f, 0.3f, rng);
  return d;
}

TEST(DenseBlock, SubnetIdBelowOneThrows) {
  for (const bool head : {false, true}) {
    Dense d = two_level_dense(head);
    Rng rng(8);
    Tensor x({2, 8});
    fill_normal(x, 0.0f, 1.0f, rng);
    for (const int id : {0, -1, INT_MIN}) {
      SubnetContext ctx;
      ctx.subnet_id = id;
      EXPECT_THROW(d.forward(x, ctx), std::invalid_argument)
          << "head=" << head << " id=" << id;
    }
  }
}

TEST(DenseBlock, IdAboveEverySubnetRunsTheTopSubnet) {
  // Both passes stop at level 2, the highest assigned subnet: an id of
  // INT_MAX costs what level 2 costs.
  for (const bool head : {false, true}) {
    Dense d = two_level_dense(head);
    Rng rng(9);
    Tensor x({2, 8});
    fill_normal(x, 0.0f, 1.0f, rng);
    SubnetContext top;
    top.subnet_id = 2;
    SubnetContext huge;
    huge.subnet_id = INT_MAX;
    const Tensor want = d.forward(x, top);
    EXPECT_TRUE(same_bits(d.forward(x, huge), want)) << "head=" << head;
    SubnetContext low;
    low.subnet_id = 1;
    EXPECT_TRUE(same_bits(d.forward_step(x, d.forward(x, low), 1, huge), want))
        << "head=" << head;
  }
}

}  // namespace
}  // namespace stepping
