// Property-based suites (parameterized over seeds / sizes) for the
// load-bearing invariants of the subnet masking engine.
#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/macs.h"
#include "models/models.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace stepping {
namespace {

/// Build a small network and scatter its units across `n_subnets` (+ discard
/// pool) pseudo-randomly by `seed`.
Network scattered_net(std::uint64_t seed, int n_subnets) {
  ModelConfig mc{.classes = 10, .expansion = 1.4, .width_mult = 0.15,
                 .seed = seed};
  Network net = build_lenet3c1l(mc);
  Rng rng(seed * 7919 + 13);
  for (MaskedLayer* m : net.body_layers()) {
    for (int u = 0; u < m->num_units(); ++u) {
      // Bias toward small subnets; occasionally discard (n_subnets + 1).
      const int s = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(n_subnets) + 1));
      m->set_unit_subnet(u, s);
    }
    // Keep subnet 1 viable in every layer.
    m->set_unit_subnet(0, 1);
  }
  return net;
}

class SubnetInvariants : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SubnetInvariants,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u));

TEST_P(SubnetInvariants, ReuseInvariantPerLayerOutputsStableAcrossSubnets) {
  // The paper's core structural claim: a unit active in subnet i produces
  // the SAME value in every subnet j >= i, at every layer. This is what
  // makes intermediate-result reuse sound.
  const int n_subnets = 3;
  Network net = scattered_net(GetParam(), n_subnets);
  Rng rng(GetParam());
  Tensor x({2, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);

  // Collect per-layer outputs for each subnet.
  std::vector<std::vector<Tensor>> outs(static_cast<std::size_t>(n_subnets));
  for (int sub = 1; sub <= n_subnets; ++sub) {
    SubnetContext ctx;
    ctx.subnet_id = sub;
    Tensor cur = x;
    for (Layer* l : net.layer_ptrs()) {
      cur = l->forward(cur, ctx);
      outs[static_cast<std::size_t>(sub - 1)].push_back(cur);
    }
  }

  // For every pair i < j and every non-head layer with unit structure:
  // channels with s(c) <= i must agree exactly between runs i and j.
  const auto layers = net.layer_ptrs();
  const auto masked = net.masked_layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    // Identify the channel assignment governing this layer's output (if
    // any): use the most recent masked body layer at or before li.
    const MaskedLayer* governing = nullptr;
    {
      Layer* cursor = layers[li];
      for (MaskedLayer* m : masked) {
        if (m == dynamic_cast<MaskedLayer*>(cursor)) governing = m;
      }
    }
    if (governing == nullptr || governing->is_head()) continue;
    const auto& assign = governing->unit_subnet();
    for (int i = 1; i <= n_subnets; ++i) {
      for (int j = i + 1; j <= n_subnets; ++j) {
        const Tensor& yi = outs[static_cast<std::size_t>(i - 1)][li];
        const Tensor& yj = outs[static_cast<std::size_t>(j - 1)][li];
        ASSERT_EQ(yi.shape(), yj.shape());
        const int units = static_cast<int>(assign.size());
        const std::int64_t per_unit = yi.numel() / (yi.dim(0) * units);
        for (int b = 0; b < yi.dim(0); ++b) {
          for (int u = 0; u < units; ++u) {
            if (assign[static_cast<std::size_t>(u)] > i) continue;
            const std::int64_t base =
                (static_cast<std::int64_t>(b) * units + u) * per_unit;
            for (std::int64_t k = 0; k < per_unit; ++k) {
              ASSERT_EQ(yi[base + k], yj[base + k])
                  << "layer " << li << " unit " << u << " subnets " << i
                  << "/" << j;
            }
          }
        }
      }
    }
  }
}

TEST_P(SubnetInvariants, MacsMonotoneAcrossSubnets) {
  Network net = scattered_net(GetParam(), 3);
  const auto macs = all_subnet_macs(net, 4);
  for (std::size_t i = 1; i < macs.size(); ++i) EXPECT_GE(macs[i], macs[i - 1]);
}

TEST_P(SubnetInvariants, MacsMonotoneUnderRandomPruning) {
  Network net = scattered_net(GetParam(), 3);
  // Magnitude pruning at a mid-scale threshold knocks out a real fraction.
  for (MaskedLayer* m : net.masked_layers()) m->apply_magnitude_prune(0.05f);
  const auto macs = all_subnet_macs(net, 4);
  for (std::size_t i = 1; i < macs.size(); ++i) EXPECT_GE(macs[i], macs[i - 1]);
}

TEST_P(SubnetInvariants, IncrementalStepUpBitExact) {
  Network net = scattered_net(GetParam(), 3);
  Rng rng(GetParam() + 99);
  Tensor x({1, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  IncrementalExecutor ex(net);
  for (int sub = 1; sub <= 3; ++sub) {
    const Tensor inc = ex.run(x, sub);
    SubnetContext ctx;
    ctx.subnet_id = sub;
    const Tensor direct = net.forward(x, ctx);
    for (std::int64_t i = 0; i < inc.numel(); ++i) {
      ASSERT_EQ(inc[i], direct[i]) << "subnet " << sub;
    }
  }
}

TEST_P(SubnetInvariants, MoveDeltaPredictionExact) {
  Network net = scattered_net(GetParam(), 3);
  Rng rng(GetParam() + 7);
  auto bodies = net.body_layers();
  for (int trial = 0; trial < 5; ++trial) {
    auto* layer = bodies[rng.next_below(bodies.size())];
    const int u = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(layer->num_units())));
    const int s = layer->unit_subnet()[static_cast<std::size_t>(u)];
    if (s > 3) continue;  // discard pool: no further moves
    const std::int64_t predicted =
        layer->move_delta_macs(u, net.consumer_of(layer));
    const std::int64_t before = subnet_macs(net, s);
    layer->set_unit_subnet(u, s + 1);
    EXPECT_EQ(predicted, before - subnet_macs(net, s));
    layer->set_unit_subnet(u, s);  // restore
  }
}

TEST_P(SubnetInvariants, TrainingIsBitDeterministicGivenSeed) {
  // Two identically seeded mini-trainings must produce identical weights —
  // the reproducibility contract every experiment in this repo relies on.
  auto run = [&] {
    Network net = scattered_net(GetParam(), 3);
    Sgd sgd(SgdConfig{.lr = 0.05});
    Rng rng(GetParam() + 1);
    Tensor x({8, 3, 32, 32});
    fill_normal(x, 0.0f, 1.0f, rng);
    std::vector<int> y(8);
    for (int i = 0; i < 8; ++i) y[static_cast<std::size_t>(i)] = i % 10;
    SubnetContext ctx;
    ctx.training = true;
    for (int b = 0; b < 5; ++b) {
      for (int k = 1; k <= 3; ++k) {
        ctx.subnet_id = k;
        train_batch(net, sgd, x, y, ctx);
      }
    }
    return net;
  };
  Network a = run();
  Network b = run();
  const auto ma = a.masked_layers();
  const auto mb = b.masked_layers();
  for (std::size_t i = 0; i < ma.size(); ++i) {
    const Tensor& wa = ma[i]->weight().value;
    const Tensor& wb = mb[i]->weight().value;
    for (std::int64_t j = 0; j < wa.numel(); ++j) {
      ASSERT_EQ(wa[j], wb[j]) << "layer " << i << " weight " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Masked GEMM variants vs the plain kernels (parameterized over sizes).
// ---------------------------------------------------------------------------

struct GemmDims {
  int m, k, n;
};

class MaskedGemm : public ::testing::TestWithParam<GemmDims> {};

INSTANTIATE_TEST_SUITE_P(Sizes, MaskedGemm,
                         ::testing::Values(GemmDims{1, 1, 1}, GemmDims{3, 5, 7},
                                           GemmDims{8, 8, 8},
                                           GemmDims{16, 4, 32},
                                           GemmDims{5, 33, 2}));

TEST_P(MaskedGemm, GemmRowsEqualsGemmWithZeroedRows) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Tensor a({m, k}), b({k, n});
  fill_normal(a, 0.0f, 1.0f, rng);
  fill_normal(b, 0.0f, 1.0f, rng);
  std::vector<unsigned char> active(static_cast<std::size_t>(m));
  for (auto& v : active) v = rng.bernoulli(0.6) ? 1 : 0;

  std::vector<float> bias(static_cast<std::size_t>(m));
  for (auto& v : bias) v = static_cast<float>(rng.normal(0.0, 1.0));

  Tensor c_masked({m, n});
  gemm_rows_bias(a, b, c_masked, active.data(), bias.data(), /*relu=*/false);

  Tensor a_zeroed = a;
  for (int i = 0; i < m; ++i) {
    if (!active[static_cast<std::size_t>(i)]) {
      for (int p = 0; p < k; ++p) a_zeroed.at(i, p) = 0.0f;
    }
  }
  Tensor c_full({m, n});
  gemm(a_zeroed, b, c_full);
  for (int i = 0; i < m; ++i) {
    const bool on = active[static_cast<std::size_t>(i)] != 0;
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(c_masked.at(i, j),
                on ? c_full.at(i, j) + bias[static_cast<std::size_t>(i)]
                   : c_full.at(i, j));
    }
  }
}

TEST_P(MaskedGemm, GemmNtColsEqualsGemmNtWithZeroedRows) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 7 + k * 3 + n);
  Tensor a({m, k}), bt({n, k});
  fill_normal(a, 0.0f, 1.0f, rng);
  fill_normal(bt, 0.0f, 1.0f, rng);
  std::vector<unsigned char> active(static_cast<std::size_t>(n));
  for (auto& v : active) v = rng.bernoulli(0.6) ? 1 : 0;

  std::vector<float> bias(static_cast<std::size_t>(n));
  for (auto& v : bias) v = static_cast<float>(rng.normal(0.0, 1.0));

  Tensor c_masked({m, n});
  gemm_nt_cols_bias(a, bt, c_masked, active.data(), bias.data(),
                    /*relu=*/false);

  Tensor c_full({m, n});
  gemm_nt(a, bt, c_full);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      if (active[static_cast<std::size_t>(j)]) {
        EXPECT_EQ(c_masked.at(i, j),
                  c_full.at(i, j) + bias[static_cast<std::size_t>(j)]);
      } else {
        EXPECT_EQ(c_masked.at(i, j), 0.0f);
      }
    }
  }
}

TEST_P(MaskedGemm, GemmTnRowsEqualsGemmTnWithZeroedRows) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  Tensor at({k, m}), b({k, n});
  fill_normal(at, 0.0f, 1.0f, rng);
  fill_normal(b, 0.0f, 1.0f, rng);
  std::vector<unsigned char> k_active(static_cast<std::size_t>(k));
  for (auto& v : k_active) v = rng.bernoulli(0.6) ? 1 : 0;

  Tensor c_masked({m, n});
  gemm_tn_rows(at, b, c_masked, k_active.data());

  Tensor at_zeroed = at;
  Tensor b_zeroed = b;
  for (int p = 0; p < k; ++p) {
    if (!k_active[static_cast<std::size_t>(p)]) {
      for (int i = 0; i < m; ++i) at_zeroed.at(p, i) = 0.0f;
    }
  }
  Tensor c_full({m, n});
  gemm_tn(at_zeroed, b_zeroed, c_full);
  for (std::int64_t i = 0; i < c_full.numel(); ++i) {
    EXPECT_EQ(c_masked[i], c_full[i]);
  }
}

// ---------------------------------------------------------------------------
// Distillation loss gradient: numeric agreement across gamma.
// ---------------------------------------------------------------------------

class DistillGamma : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Gammas, DistillGamma,
                         ::testing::Values(0.0, 0.25, 0.4, 0.75, 1.0));

TEST_P(DistillGamma, GradientMatchesNumeric) {
  const double gamma = GetParam();
  Rng rng(static_cast<std::uint64_t>(gamma * 1000) + 5);
  Tensor logits({3, 4}), t_logits({3, 4});
  fill_normal(logits, 0.0f, 1.0f, rng);
  fill_normal(t_logits, 0.0f, 1.0f, rng);
  Tensor teacher;
  softmax_rows(t_logits, teacher);
  const std::vector<int> labels = {0, 2, 3};
  const LossOutput lo = distillation_loss(logits, labels, teacher, gamma);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double num = (distillation_loss(lp, labels, teacher, gamma).loss -
                        distillation_loss(lm, labels, teacher, gamma).loss) /
                       (2.0 * eps);
    EXPECT_NEAR(lo.grad_logits[i], num, 2e-3);
  }
}

}  // namespace
}  // namespace stepping
