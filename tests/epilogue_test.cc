// Fused bias/ReLU epilogues (ISSUE 5): the fused bias(+ReLU) store is
// BITWISE identical to the unfused gemm -> bias -> relu sequence for every
// blocking, thread count and ragged shape, at the kernel level and through
// Network::forward's Layer->ReLU fusion.
//
// Ground truths run through the DISPATCHING kernels (not gemmref::*), so
// every check here holds at any ISA tier (ISSUE 6): fusion is
// bitwise-invisible within a tier, while the FMA tiers legitimately differ
// from the reference loops. The CI isa-matrix job re-runs this suite under
// each STEPPING_ISA pin; RefFusedWrappersMatchRefUnfused keeps the pure
// reference wrappers honest independent of the tier.
#include "tensor/gemm_kernel.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/models.h"
#include "tensor/gemm_isa.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

/// Restores blocking, tier and threads on exit, so the suite composes with
/// the rest of the test binary in any order.
class EpilogueParity : public ::testing::Test {
 protected:
  void TearDown() override {
    set_gemm_blocking(env_gemm_blocking());
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

Tensor make_operand(int rows, int cols, unsigned seed) {
  Rng rng(seed);
  Tensor t({rows, cols});
  fill_normal(t, 0.0f, 1.0f, rng);
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); i += 5) p[i] = 0.0f;
  return t;
}

std::vector<unsigned char> make_mask(int len, int period) {
  std::vector<unsigned char> m(static_cast<std::size_t>(len), 1);
  for (int i = 0; i < len; ++i) {
    if (i % period == 0) m[static_cast<std::size_t>(i)] = 0;
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

// ---------------------------------------------------------------------------
// Fused-epilogue parity grid.
// ---------------------------------------------------------------------------

struct Shape {
  int m, k, n;
};

/// Unfused sequence through the dispatching kernels: gemm (masked) -> bias
/// on active lanes -> relu. Inactive lanes stay zero, exactly like the
/// layer forward paths. Using the dispatcher (not gemmref) makes this the
/// tier-local ground truth: fusion must be invisible at ANY ISA tier.
Tensor nt_cols_unfused(const Tensor& a, const Tensor& bt,
                       const unsigned char* col_active, const Tensor& bias,
                       bool relu) {
  Tensor c({a.dim(0), bt.dim(0)});
  gemm_nt_cols(a, bt, c, col_active);
  const int m = c.dim(0), n = c.dim(1);
  float* pc = c.data();
  const float* pb = bias.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      if (col_active[j]) pc[static_cast<std::int64_t>(i) * n + j] += pb[j];
    }
  }
  if (relu) {
    for (std::int64_t i = 0; i < c.numel(); ++i) {
      pc[i] = pc[i] > 0.0f ? pc[i] : 0.0f;
    }
  }
  return c;
}

Tensor rows_unfused(const Tensor& a, const Tensor& b,
                    const unsigned char* row_active, const Tensor& bias,
                    bool relu) {
  Tensor c({a.dim(0), b.dim(1)});
  gemm_rows(a, b, c, row_active);
  const int m = c.dim(0), n = c.dim(1);
  float* pc = c.data();
  const float* pb = bias.data();
  for (int i = 0; i < m; ++i) {
    if (!row_active[i]) continue;
    for (int j = 0; j < n; ++j) {
      pc[static_cast<std::int64_t>(i) * n + j] += pb[i];
    }
  }
  if (relu) {
    for (std::int64_t i = 0; i < c.numel(); ++i) {
      pc[i] = pc[i] > 0.0f ? pc[i] : 0.0f;
    }
  }
  return c;
}

void check_epilogue_shape(const Shape& s, const std::string& ctx) {
  const Tensor a = make_operand(s.m, s.k, 11);
  const Tensor b = make_operand(s.k, s.n, 22);
  const Tensor bt = make_operand(s.n, s.k, 44);
  const Tensor col_bias = make_operand(1, s.n, 55);
  const Tensor row_bias = make_operand(1, s.m, 66);
  const auto row_mask = make_mask(s.m, 3);
  const auto col_mask = make_mask(s.n, 2);
  const std::string tag = ctx + " m=" + std::to_string(s.m) +
                          " k=" + std::to_string(s.k) +
                          " n=" + std::to_string(s.n);

  for (const bool relu : {false, true}) {
    const std::string rtag = tag + (relu ? " relu" : "");
    const Tensor want_cols =
        nt_cols_unfused(a, bt, col_mask.data(), col_bias, relu);
    Tensor got({s.m, s.n});

    got.zero();
    gemm_nt_cols_bias(a, bt, got, col_mask.data(), col_bias.data(), relu);
    EXPECT_TRUE(bitwise_equal(want_cols, got, "nt_cols_bias " + rtag));

    const Tensor want_rows =
        rows_unfused(a, b, row_mask.data(), row_bias, relu);
    got.zero();
    gemm_rows_bias(a, b, got, row_mask.data(), row_bias.data(), relu);
    EXPECT_TRUE(bitwise_equal(want_rows, got, "rows_bias " + rtag));
  }
}

TEST_F(EpilogueParity, GridOverBlockingsThreadsAndOddShapes) {
  const Shape shapes[] = {
      {3, 7, 5},       // smaller than one register tile in every dimension
      {17, 9, 33},     // none a multiple of MR/NR
      {31, 33, 8},     // single full panel plus ragged rows
      {65, 129, 33},   // straddles default and tiny blockings
      {128, 100, 96},  // paper-ish, even panels
      {1, 64, 48},     // single-row serving case
  };
  GemmBlocking grid[] = {
      {1, 1, 8, false, 0, 0},       // degenerate: one row, one k per chunk
      {4, 8, 8, false, 0, 0},       // single tile per group, single panel
      {8, 16, 24, false, 0, 0},     // panel pairs + odd tail; nc splits n
      {5, 7, 9, false, 0, 0},       // deliberately misaligned block sizes
      {64, 256, 1024, false, 0, 0}  // production defaults, forced on
  };
  for (const auto& cfg : grid) {
    set_gemm_blocking(cfg);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::set_global_threads(threads);
      const std::string ctx = "blocking=" + std::to_string(cfg.mc) + "x" +
                              std::to_string(cfg.kc) + "x" +
                              std::to_string(cfg.nc) +
                              " threads=" + std::to_string(threads);
      for (const Shape& s : shapes) check_epilogue_shape(s, ctx);
    }
  }
}

TEST_F(EpilogueParity, HeadShapesTakeTheFallbackAndMatchUnfused) {
  // Dense heads: batch rows, a flattened plane, a few classes. At the
  // default blocking these run the tier's small-shape fallback, which
  // carries several columns' dot products side by side.
  const Shape shapes[] = {{1, 928, 10}, {4, 928, 10}, {1, 230, 100}, {3, 37, 13}};
  set_gemm_blocking(GemmBlocking{});
  const auto check = [&](const Shape& s, const std::string& where) {
    EXPECT_FALSE(gemm_uses_blocked(s.m, s.k, s.n, gemm_blocking()));
    const Tensor a = make_operand(s.m, s.k, 11);
    const Tensor bt = make_operand(s.n, s.k, 44);
    const Tensor bias = make_operand(1, s.n, 55);
    for (const int period : {2, 3, 1000}) {  // every 2nd/3rd column masked, or 1
      const auto mask = make_mask(s.n, period);
      for (const bool relu : {false, true}) {
        const std::string tag = "m=" + std::to_string(s.m) +
                                " k=" + std::to_string(s.k) +
                                " n=" + std::to_string(s.n) + " mask period " +
                                std::to_string(period) + (relu ? " relu " : " ") +
                                where;
        const Tensor want = nt_cols_unfused(a, bt, mask.data(), bias, relu);
        Tensor got({s.m, s.n});
        gemm_nt_cols_bias(a, bt, got, mask.data(), bias.data(), relu);
        EXPECT_TRUE(bitwise_equal(want, got, "head " + tag));
      }
    }
  };
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (!isa_tier_compiled(tier)) continue;
    set_isa_tier(tier);
    for (const int threads : {1, 3}) {
      ThreadPool::set_global_threads(threads);
      for (const Shape& s : shapes) {
        check(s, std::string("tier=") + isa_tier_name(tier) +
                     " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(EpilogueParity, RefFusedWrappersMatchRefUnfused) {
  // The pure reference wrappers are tier-independent by construction; this
  // keeps gemmref::*_bias honest without routing through the dispatcher.
  const Shape s{17, 9, 33};
  const Tensor a = make_operand(s.m, s.k, 11);
  const Tensor b = make_operand(s.k, s.n, 22);
  const Tensor bt = make_operand(s.n, s.k, 44);
  const Tensor col_bias = make_operand(1, s.n, 55);
  const Tensor row_bias = make_operand(1, s.m, 66);
  const auto row_mask = make_mask(s.m, 3);
  const auto col_mask = make_mask(s.n, 2);
  for (const bool relu : {false, true}) {
    Tensor want({s.m, s.n}), got({s.m, s.n});
    want.zero();
    gemm_nt_cols_ref(a, bt, want, col_mask.data());
    float* pw = want.data();
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        if (col_mask[static_cast<std::size_t>(j)]) {
          pw[static_cast<std::int64_t>(i) * s.n + j] += col_bias.data()[j];
        }
      }
    }
    if (relu) {
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        pw[i] = pw[i] > 0.0f ? pw[i] : 0.0f;
      }
    }
    got.zero();
    gemm_nt_cols_bias_ref(a, bt, got, col_mask.data(), col_bias.data(), relu);
    EXPECT_TRUE(bitwise_equal(want, got,
                              std::string("nt_cols_bias_ref vs unfused ref") +
                                  (relu ? " relu" : "")));

    want.zero();
    gemm_rows_ref(a, b, want, row_mask.data());
    pw = want.data();
    for (int i = 0; i < s.m; ++i) {
      if (!row_mask[static_cast<std::size_t>(i)]) continue;
      for (int j = 0; j < s.n; ++j) {
        pw[static_cast<std::int64_t>(i) * s.n + j] += row_bias.data()[i];
      }
    }
    if (relu) {
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        pw[i] = pw[i] > 0.0f ? pw[i] : 0.0f;
      }
    }
    got.zero();
    gemm_rows_bias_ref(a, b, got, row_mask.data(), row_bias.data(), relu);
    EXPECT_TRUE(bitwise_equal(want, got,
                              std::string("rows_bias_ref vs unfused ref") +
                                  (relu ? " relu" : "")));
  }
}

TEST_F(EpilogueParity, TierSweepFusedMatchesUnfusedAtEveryTier) {
  // One ragged shape through every tier this binary + host can run: the
  // fused epilogues must match the tier's own unfused sequence (the full blocking/thread grid runs per tier in CI
  // via the STEPPING_ISA pins).
  set_gemm_blocking(GemmBlocking{8, 16, 24, false, 0, 0});
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (!isa_tier_compiled(tier)) continue;
    set_isa_tier(tier);
    check_epilogue_shape({65, 129, 33},
                         std::string("tier=") + isa_tier_name(tier));
  }
}

TEST_F(EpilogueParity, NetworkForwardFusionMatchesLayerByLayer) {
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.25,
                 .seed = 17};
  Network net = build_lenet3c1l(mc);
  Rng rng(5);
  Tensor x({3, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;  // inference: Network::forward fuses Layer->ReLU pairs
  const Tensor fused = net.forward(x, ctx);
  // Unfused ground truth: every layer individually, no adjacency fusion.
  Tensor cur = x;
  for (Layer* l : net.layer_ptrs()) cur = l->forward(cur, ctx);
  EXPECT_TRUE(bitwise_equal(fused, cur, "network relu fusion"));
}

}  // namespace
}  // namespace stepping
