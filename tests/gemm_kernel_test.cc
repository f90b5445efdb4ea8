// Parity grid for the blocked GEMM layer: every kernel in the family must
// be BITWISE identical to its reference loop (the tier's fallback, reached
// through GemmBlocking::force_ref) on the non-FMA tiers (scalar, sse) for
// every block configuration, every thread count, and shapes that are not
// multiples of the register tile — and BITWISE STABLE within every
// supported ISA tier across the same grid. This is the enforcement arm of
// the determinism contract documented in gemm_kernel.h / gemm_isa.h.
#include "tensor/gemm_kernel.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/models.h"
#include "nn/batchnorm.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "tensor/gemm_isa.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

/// Restores the default blocking, the env-derived ISA tier and default
/// threads when a test exits.
class GemmBlockedParity : public ::testing::Test {
 protected:
  void TearDown() override {
    set_gemm_blocking(GemmBlocking{});
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

/// Every tier this binary + host can actually run, narrowest first.
std::vector<IsaTier> supported_tiers() {
  std::vector<IsaTier> tiers;
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (isa_tier_compiled(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Widest tier whose multiply-add is unfused (two roundings) — the tiers
/// contracted to match the reference kernels bit for bit.
IsaTier widest_nonfma_tier() {
  IsaTier best = IsaTier::kScalar;
  for (IsaTier t : supported_tiers()) {
    if (t <= IsaTier::kSse) best = t;
  }
  return best;
}

/// ~20% exact zeros, like masked subnet weights: exercises the axpy
/// family's zero-skip on both paths.
Tensor make_operand(int rows, int cols, unsigned seed) {
  Rng rng(seed);
  Tensor t({rows, cols});
  fill_normal(t, 0.0f, 1.0f, rng);
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); i += 5) p[i] = 0.0f;
  return t;
}

std::vector<unsigned char> make_mask(int len, int period, unsigned char keep) {
  std::vector<unsigned char> m(static_cast<std::size_t>(len), 1);
  for (int i = 0; i < len; ++i) {
    m[static_cast<std::size_t>(i)] =
        (i % period == 0) ? static_cast<unsigned char>(keep ^ 1) : keep;
  }
  return m;
}

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

struct Shape {
  int m, k, n;
};

/// Names of run_family's outputs, in order.
const char* const kFamilyNames[] = {
    "gemm", "gemm acc", "gemm_tn", "gemm_nt", "gemm_rows_bias",
    "gemm_rows_bias relu", "gemm_nt_cols_bias", "gemm_nt_cols_bias relu",
    "gemm_nt_rows_acc", "gemm_tn_rows"};

/// Every kernel (plus the accumulating flavor, and each fused epilogue with
/// and without ReLU) on one shape through the dispatching path, outputs
/// collected for cross-run comparison.
std::vector<Tensor> run_family(const Shape& s) {
  const Tensor a = make_operand(s.m, s.k, 11);
  const Tensor b = make_operand(s.k, s.n, 22);
  const Tensor at = make_operand(s.k, s.m, 33);
  const Tensor bt = make_operand(s.n, s.k, 44);
  const Tensor c0 = make_operand(s.m, s.n, 55);
  const Tensor row_bias = make_operand(1, s.m, 66);
  const Tensor col_bias = make_operand(1, s.n, 77);
  const auto row_mask = make_mask(s.m, 3, 1);
  const auto col_mask = make_mask(s.n, 2, 1);
  const auto k_mask = make_mask(s.k, 4, 1);

  std::vector<Tensor> out;
  Tensor c({s.m, s.n});
  gemm(a, b, c);
  out.push_back(c);
  c = c0;
  gemm(a, b, c, /*accumulate=*/true);
  out.push_back(c);
  gemm_tn(at, b, c);
  out.push_back(c);
  gemm_nt(a, bt, c);
  out.push_back(c);
  for (const bool relu : {false, true}) {
    c.zero();
    gemm_rows_bias(a, b, c, row_mask.data(), row_bias.data(), relu);
    out.push_back(c);
  }
  for (const bool relu : {false, true}) {
    c.zero();
    gemm_nt_cols_bias(a, bt, c, col_mask.data(), col_bias.data(), relu);
    out.push_back(c);
  }
  c = c0;
  gemm_nt_rows_acc(a, bt, c, row_mask.data());
  out.push_back(c);
  gemm_tn_rows(at, b, c, k_mask.data());
  out.push_back(c);
  return out;
}

void expect_family_equal(const std::vector<Tensor>& want,
                         const std::vector<Tensor>& got,
                         const std::string& tag) {
  ASSERT_EQ(want.size(), std::size(kFamilyNames));
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(want[i], got[i],
                              std::string(kFamilyNames[i]) + " " + tag));
  }
}

/// Runs the family on one shape through the reference loops (force_ref)
/// and through the current blocking, and compares them byte for byte.
void check_shape(const Shape& s, const std::string& ctx) {
  const GemmBlocking cfg = gemm_blocking();
  GemmBlocking ref_cfg;
  ref_cfg.force_ref = true;
  set_gemm_blocking(ref_cfg);
  const std::vector<Tensor> want = run_family(s);
  set_gemm_blocking(cfg);
  expect_family_equal(want, run_family(s),
                      ctx + " m=" + std::to_string(s.m) +
                          " k=" + std::to_string(s.k) +
                          " n=" + std::to_string(s.n));
}

const Shape kOddShapes[] = {
    {3, 7, 5},      // smaller than one register tile in every dimension
    {17, 9, 33},    // none a multiple of MR/NR
    {31, 33, 8},    // single full panel plus ragged rows
    {65, 129, 33},  // straddles default and tiny blockings
    {128, 100, 96}, // paper-ish, even panels
    {12, 64, 48},   // k a multiple of small kc values
};

const GemmBlocking kBlockingGrid[] = {
    {1, 1, 8, false, 0, 0},      // degenerate: one row, one k per chunk
    {4, 8, 8, false, 0, 0},      // single tile per group, single panel
    {8, 16, 24, false, 0, 0},    // panel pairs + odd tail
    {5, 7, 9, false, 0, 0},      // deliberately misaligned block sizes
    {64, 256, 1024, false, 0, 0} // production defaults, forced on
};

TEST_F(GemmBlockedParity, GridOverBlockingsThreadsAndOddShapes) {
  // vs-reference bitwise parity is the non-FMA tiers' contract; pin the
  // widest such tier (sse where compiled — the pre-ISSUE-6 kernels).
  set_isa_tier(widest_nonfma_tier());
  for (const auto& cfg : kBlockingGrid) {
    set_gemm_blocking(cfg);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::set_global_threads(threads);
      const std::string ctx = "blocking=" + std::to_string(cfg.mc) + "x" +
                              std::to_string(cfg.kc) + "x" +
                              std::to_string(cfg.nc) +
                              " threads=" + std::to_string(threads);
      for (const Shape& s : kOddShapes) check_shape(s, ctx);
    }
  }
}

TEST_F(GemmBlockedParity, TierSweepBitwiseStableWithinEachTier) {
  // Within one ISA tier, bits must not move for ANY blocking or thread
  // count — including the FMA tiers, whose values differ from the
  // reference but must be exactly as stable. The baseline per (tier,
  // shape) is the production blocking on one thread; every other grid
  // point must memcmp-match it.
  for (const IsaTier tier : supported_tiers()) {
    set_isa_tier(tier);
    const std::string tname = isa_tier_name(tier);
    for (const Shape& s : kOddShapes) {
      set_gemm_blocking(kBlockingGrid[4]);
      ThreadPool::set_global_threads(1);
      const std::vector<Tensor> base = run_family(s);
      for (const auto& cfg : kBlockingGrid) {
        set_gemm_blocking(cfg);
        for (const int threads : {1, 2, 4}) {
          ThreadPool::set_global_threads(threads);
          expect_family_equal(
              base, run_family(s),
              "tier=" + tname + " m=" + std::to_string(s.m) +
                  " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n) +
                  " blocking=" + std::to_string(cfg.mc) + "x" +
                  std::to_string(cfg.kc) + "x" + std::to_string(cfg.nc) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST_F(GemmBlockedParity, FallbackMatchesBlockedBitwiseAtEveryTier) {
  // The routing-boundary invariant: a value must not depend on WHICH path
  // (small-shape fallback vs blocked) the dispatcher picked — SteppingNet's
  // incremental step-up computes tiny delta GEMMs that must splice bitwise
  // into activations produced by full blocked forwards. Force each route in
  // turn and memcmp the whole kernel family.
  for (const IsaTier tier : supported_tiers()) {
    set_isa_tier(tier);
    const std::string tname = isa_tier_name(tier);
    for (const Shape& s : kOddShapes) {
      GemmBlocking ref_cfg;
      ref_cfg.force_ref = true;  // tier fallback kernels
      set_gemm_blocking(ref_cfg);
      const std::vector<Tensor> via_fallback = run_family(s);
      set_gemm_blocking(kBlockingGrid[2]);  // forced blocked, panel pairs
      expect_family_equal(via_fallback, run_family(s),
                          "tier=" + tname + " m=" + std::to_string(s.m) +
                              " k=" + std::to_string(s.k) +
                              " n=" + std::to_string(s.n));
    }
  }
}

TEST_F(GemmBlockedParity, IsaTierSelectionParsesAndClamps) {
  IsaTier t = IsaTier::kScalar;
  EXPECT_TRUE(parse_isa_tier("scalar", &t));
  EXPECT_EQ(t, IsaTier::kScalar);
  EXPECT_TRUE(parse_isa_tier("sse", &t));
  EXPECT_EQ(t, IsaTier::kSse);
  EXPECT_TRUE(parse_isa_tier("avx2", &t));
  EXPECT_EQ(t, IsaTier::kAvx2);
  EXPECT_TRUE(parse_isa_tier("avx512", &t));
  EXPECT_EQ(t, IsaTier::kAvx512);
  t = IsaTier::kSse;
  EXPECT_FALSE(parse_isa_tier("neon", &t));
  EXPECT_FALSE(parse_isa_tier("AVX2", &t));  // names are exact lowercase
  EXPECT_EQ(t, IsaTier::kSse);               // untouched on failure

  // Requests above the host's capability clamp down; a request at or below
  // it sticks. Covers STEPPING_ISA=avx512 on hosts without AVX-512 (where
  // env_isa_tier() returns the host max) and on hosts with it (identity).
  const IsaTier host_max = detected_isa_tier();
  const char* saved = std::getenv("STEPPING_ISA");
  const std::string saved_val = saved ? saved : "";
  ::setenv("STEPPING_ISA", "avx512", 1);
  EXPECT_EQ(env_isa_tier(),
            std::min(IsaTier::kAvx512, host_max));
  ::setenv("STEPPING_ISA", "scalar", 1);
  EXPECT_EQ(env_isa_tier(), IsaTier::kScalar);
  ::setenv("STEPPING_ISA", "bogus", 1);
  EXPECT_EQ(env_isa_tier(), host_max);  // unknown names fall back to host max
  if (saved) {
    ::setenv("STEPPING_ISA", saved_val.c_str(), 1);
  } else {
    ::unsetenv("STEPPING_ISA");
  }

  // set_isa_tier clamps the same way and the gauge tracks the selection.
  set_isa_tier(IsaTier::kAvx512);
  EXPECT_LE(static_cast<int>(isa_tier()), static_cast<int>(host_max));
  EXPECT_EQ(obs::Registry::global().gauge("stepping_isa_tier").value(),
            static_cast<std::int64_t>(isa_tier()));

  // Panel width follows the active tier.
  for (const IsaTier tier : supported_tiers()) {
    set_isa_tier(tier);
    const int nr = gemm_panel_width();
    switch (tier) {
      case IsaTier::kScalar:
      case IsaTier::kSse:
        EXPECT_EQ(nr, 8) << isa_tier_name(tier);
        break;
      case IsaTier::kAvx2:
        EXPECT_EQ(nr, 16) << isa_tier_name(tier);
        break;
      case IsaTier::kAvx512:
        EXPECT_EQ(nr, 32) << isa_tier_name(tier);
        break;
    }
  }
}

TEST_F(GemmBlockedParity, ForceRefRoutesEverythingToReference) {
  // A shape the default blocking sends to the blocked path: under force_ref
  // every kernel takes the tier's fallback loops instead, and the two
  // routes agree byte for byte. The counter assertions are tier-independent.
  set_isa_tier(widest_nonfma_tier());
  const Shape s{64, 64, 64};
  ASSERT_TRUE(gemm_uses_blocked(s.m, s.k, s.n, GemmBlocking{}));
  GemmBlocking cfg;
  cfg.force_ref = true;
  set_gemm_blocking(cfg);
  obs::Counter& blocked =
      obs::Registry::global().counter("stepping_gemm_blocked_total");
  obs::Counter& ref =
      obs::Registry::global().counter("stepping_gemm_ref_total");
  const std::uint64_t blocked_before = blocked.value();
  const std::uint64_t ref_before = ref.value();
  const std::vector<Tensor> via_ref = run_family(s);
  EXPECT_EQ(blocked.value(), blocked_before);
  EXPECT_EQ(ref.value(), ref_before + via_ref.size());
  set_gemm_blocking(GemmBlocking{});
  expect_family_equal(via_ref, run_family(s), "force_ref vs blocked");
  EXPECT_GT(blocked.value(), blocked_before);
}

TEST_F(GemmBlockedParity, DispatchCountersTrackBlockedCalls) {
  GemmBlocking cfg;
  cfg.min_macs = 0;
  cfg.min_k = 0;
  set_gemm_blocking(cfg);
  obs::Counter& blocked =
      obs::Registry::global().counter("stepping_gemm_blocked_total");
  obs::Counter& packs =
      obs::Registry::global().counter("stepping_gemm_packs_total");
  const std::uint64_t blocked_before = blocked.value();
  const std::uint64_t packs_before = packs.value();
  Tensor a = make_operand(32, 48, 1), b = make_operand(48, 40, 2);
  Tensor c({32, 40});
  gemm(a, b, c);
  EXPECT_EQ(blocked.value(), blocked_before + 1);
  EXPECT_GT(packs.value(), packs_before);
}

TEST_F(GemmBlockedParity, SmallShapesFallBackToReference) {
  set_isa_tier(widest_nonfma_tier());  // vs-ref parity is their contract
  set_gemm_blocking(GemmBlocking{});  // production thresholds
  const GemmBlocking cfg = gemm_blocking();
  EXPECT_FALSE(gemm_uses_blocked(4, 4, 4, cfg));      // below min_macs
  EXPECT_FALSE(gemm_uses_blocked(1024, 8, 1024, cfg));  // below min_k
  EXPECT_TRUE(gemm_uses_blocked(128, 400, 1024, cfg));
  // Tiny shapes still compute correctly through the dispatcher.
  check_shape({2, 3, 2}, "fallback");
}

TEST_F(GemmBlockedParity, DefaultBlockingAndOverrideRoundTrip) {
  // Without an override the dispatcher runs the documented defaults, and
  // set_gemm_blocking round-trips every field.
  const GemmBlocking dflt;
  EXPECT_EQ(dflt.mc, 64);
  EXPECT_EQ(dflt.kc, 256);
  EXPECT_EQ(dflt.nc, 1024);
  EXPECT_FALSE(dflt.force_ref);
  const GemmBlocking cur = gemm_blocking();
  EXPECT_EQ(cur.mc, dflt.mc);
  EXPECT_EQ(cur.kc, dflt.kc);
  EXPECT_EQ(cur.nc, dflt.nc);
  EXPECT_EQ(cur.force_ref, dflt.force_ref);
  EXPECT_EQ(cur.min_macs, dflt.min_macs);
  EXPECT_EQ(cur.min_k, dflt.min_k);
  GemmBlocking cfg{7, 9, 24, true, 5, 3};
  set_gemm_blocking(cfg);
  const GemmBlocking got = gemm_blocking();
  EXPECT_EQ(got.mc, 7);
  EXPECT_EQ(got.kc, 9);
  EXPECT_EQ(got.nc, 24);
  EXPECT_TRUE(got.force_ref);
  EXPECT_EQ(got.min_macs, 5);
  EXPECT_EQ(got.min_k, 3);
}

/// Every parameter value and BatchNorm running statistic of `net`, in layer
/// order.
std::vector<Tensor> trained_state(Network& net) {
  std::vector<Tensor> out;
  for (Param* p : net.params()) out.push_back(p->value);
  for (Layer* l : net.layer_ptrs()) {
    if (const auto* bn = dynamic_cast<const BatchNorm2d*>(l)) {
      out.push_back(bn->running_mean());
      out.push_back(bn->running_var());
    }
  }
  return out;
}

/// Three SGD steps (training forward, softmax cross-entropy, backward,
/// update) of a freshly built model at width 0.25 on one batch of four.
std::vector<Tensor> train_three_steps(const std::string& model) {
  const ModelConfig mc{.classes = 10, .width_mult = 0.25, .seed = 3};
  Network net = build_model(model, mc);
  Rng rng(9);
  Tensor x({4, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  const std::vector<int> labels = {1, 7, 3, 0};
  Sgd sgd({.lr = 0.05, .momentum = 0.9, .weight_decay = 5e-4});
  SubnetContext ctx;
  ctx.training = true;
  for (int step = 0; step < 3; ++step) train_batch(net, sgd, x, labels, ctx);
  return trained_state(net);
}

TEST_F(GemmBlockedParity, TrainingStepsMatchUnderForcedFallback) {
  // End to end, the route a GEMM takes must not move a trained bit: the
  // same steps through the default blocking (which sends the conv
  // backward's GEMMs to the blocked path) and with every GEMM forced onto
  // the tier's fallback loops leave every parameter and BatchNorm
  // statistic memcmp-equal.
  obs::Counter& blocked =
      obs::Registry::global().counter("stepping_gemm_blocked_total");
  for (const IsaTier tier : supported_tiers()) {
    set_isa_tier(tier);
    for (const std::string model : {"lenet3c1l", "lenet5"}) {
      const std::string tag = model + " tier=" + isa_tier_name(tier);
      set_gemm_blocking(GemmBlocking{});
      const std::uint64_t blocked_before = blocked.value();
      const std::vector<Tensor> via_default = train_three_steps(model);
      EXPECT_GT(blocked.value(), blocked_before) << tag;
      GemmBlocking ref_cfg;
      ref_cfg.force_ref = true;
      set_gemm_blocking(ref_cfg);
      const std::vector<Tensor> via_fallback = train_three_steps(model);
      ASSERT_EQ(via_default.size(), via_fallback.size()) << tag;
      for (std::size_t i = 0; i < via_default.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(via_default[i], via_fallback[i],
                                  tag + " state#" + std::to_string(i)));
      }
    }
  }
}

}  // namespace
}  // namespace stepping
