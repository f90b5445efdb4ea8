// Persistent packed-weight cache + fused bias/ReLU epilogues (ISSUE 5).
//
// Two enforcement arms:
//  * PackCache*: the cache returns exactly the bytes pack_b would produce at
//    every cache state (cold, warm, evicted, flushed), is invalidated by
//    every writer that can change the weights (SGD step, deserialization,
//    blocking flips), evicts LRU under a byte limit, and is safe under
//    concurrent per-replica access (TSan job re-runs this suite).
//  * Epilogue*: the fused bias(+ReLU) store is BITWISE identical to the
//    unfused gemm -> bias -> relu sequence for every blocking, thread count
//    and ragged shape, at the kernel level and through Network::forward's
//    Layer->ReLU fusion.
//
// Ground truths run through the DISPATCHING kernels (not gemmref::*), so
// every check here holds at any ISA tier (ISSUE 6): fusion and caching are
// bitwise-invisible within a tier, while the FMA tiers legitimately differ
// from the reference loops. The CI isa-matrix job re-runs this suite under
// each STEPPING_ISA pin; RefFusedWrappersMatchRefUnfused keeps the pure
// reference wrappers honest independent of the tier.
#include "tensor/gemm_kernel.h"

#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "core/train_loops.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/dense.h"
#include "nn/sgd.h"
#include "obs/metrics.h"
#include "tensor/gemm_isa.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

obs::Counter& hits() {
  return obs::Registry::global().counter("stepping_packcache_hits_total");
}
obs::Counter& misses() {
  return obs::Registry::global().counter("stepping_packcache_misses_total");
}
obs::Counter& evictions() {
  return obs::Registry::global().counter("stepping_packcache_evictions_total");
}

/// Restores blocking, threads and the cache (limit + contents) on exit, so
/// the suite composes with the rest of the test binary in any order.
class PackCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_limit_ = pack_cache_limit_mb();
    flush_pack_cache();
  }
  void TearDown() override {
    set_pack_cache_limit_mb(saved_limit_);
    flush_pack_cache();
    set_gemm_blocking(env_gemm_blocking());
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
  long saved_limit_ = 0;
};

using EpilogueParity = PackCacheTest;

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

    // Blocked, uncached.
    got.zero();
    gemm_nt_cols_bias(a, bt, got, col_mask.data(), col_bias.data(), relu, 0);
    EXPECT_TRUE(bitwise_equal(want_cols, got, "nt_cols_bias pack0 " + rtag));

    // Blocked through the cache: miss, then hit, must both match.
    const std::uint64_t id = new_pack_id();
    got.zero();
    gemm_nt_cols_bias(a, bt, got, col_mask.data(), col_bias.data(), relu, id);
    EXPECT_TRUE(bitwise_equal(want_cols, got, "nt_cols_bias cold " + rtag));
    got.zero();
    gemm_nt_cols_bias(a, bt, got, col_mask.data(), col_bias.data(), relu, id);
    EXPECT_TRUE(bitwise_equal(want_cols, got, "nt_cols_bias warm " + rtag));

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
    flush_pack_cache();  // blockings change the packed layout key (nc)
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
        gemm_nt_cols_bias(a, bt, got, mask.data(), bias.data(), relu, 0);
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
  // fused epilogues and both cache states must match the tier's own
  // unfused sequence (the full blocking/thread grid runs per tier in CI
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

// ---------------------------------------------------------------------------
// Cache behaviour.
// ---------------------------------------------------------------------------

/// A wired Dense layer driven directly (flat input of `k` features).
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
  Dense layer;
};

TEST_F(PackCacheTest, WarmForwardHitsAndFlushMisses) {
  DenseRig rig(/*units=*/128, /*k=*/96, 31);
  Rng rng(2);
  Tensor x({4, 96});
  fill_normal(x, 0.0f, 1.0f, rng);
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  SubnetContext ctx;

  const Tensor y0 = rig.layer.forward(x, ctx);  // cold: pack + insert
  const std::uint64_t id = rig.layer.pack_id();
  ASSERT_NE(id, 0u);
  const std::uint64_t h0 = hits().value();
  const Tensor y1 = rig.layer.forward(x, ctx);  // warm: cache hit
  EXPECT_EQ(rig.layer.pack_id(), id);
  EXPECT_GT(hits().value(), h0);
  EXPECT_TRUE(bitwise_equal(y0, y1, "warm forward"));

  const std::uint64_t m0 = misses().value();
  flush_pack_cache();
  const Tensor y2 = rig.layer.forward(x, ctx);  // repack, same id
  EXPECT_GT(misses().value(), m0);
  EXPECT_TRUE(bitwise_equal(y0, y2, "post-flush forward"));
}

TEST_F(PackCacheTest, InvalidatedBySgdStep) {
  DenseRig rig(128, 96, 32);
  Rng rng(3);
  Tensor x({2, 96});
  fill_normal(x, 0.0f, 1.0f, rng);
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  SubnetContext ctx;

  rig.layer.forward(x, ctx);  // populate the cache
  const std::uint64_t id_before = rig.layer.pack_id();

  // An optimizer step rewrites weight bytes without touching the layer's
  // dirty flag; the param version bump must retire the cached panels.
  for (Param* p : rig.layer.params()) {
    p->grad = Tensor(p->value.shape());
    fill_normal(p->grad, 0.1f, 0.5f, rng);
  }
  Sgd sgd(SgdConfig{.lr = 0.05});
  sgd.step(rig.layer.params());

  const Tensor y = rig.layer.forward(x, ctx);
  EXPECT_NE(rig.layer.pack_id(), id_before);
  // Ground truth: a flushed cache cannot serve stale bytes.
  flush_pack_cache();
  const Tensor want = rig.layer.forward(x, ctx);
  EXPECT_TRUE(bitwise_equal(want, y, "forward after SGD step"));
}

TEST_F(PackCacheTest, InvalidatedByDeserialization) {
  // Gates off so the small test model's dense head takes the cached path.
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15,
                 .seed = 7};
  Network donor = build_model("lenet3c1l", mc);
  mc.seed = 99;
  Network net = build_model("lenet3c1l", mc);

  Rng rng(5);
  Tensor x({2, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  net.forward(x, ctx);  // cache packed panels of the pre-load weights

  // load_network writes raw tensor bytes behind the layers' backs.
  std::stringstream buf;
  ASSERT_TRUE(save_network(donor, buf));
  ASSERT_TRUE(load_network(net, buf));

  const Tensor y = net.forward(x, ctx);
  flush_pack_cache();
  const Tensor want = net.forward(x, ctx);
  EXPECT_TRUE(bitwise_equal(want, y, "forward after deserialization"));
  const Tensor donor_y = donor.forward(x, ctx);
  EXPECT_TRUE(bitwise_equal(donor_y, y, "loaded vs donor forward"));
}

TEST_F(PackCacheTest, LruEvictionUnderTinyLimit) {
  // Each packed operand is 512 KiB (ceil(512/8)*8 panels * 256 k * 4 B), so
  // a 1 MiB limit holds exactly two entries.
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  set_pack_cache_limit_mb(1);
  const int m = 4, k = 256, n = 512;
  const Tensor a = make_operand(m, k, 1);
  const Tensor wa = make_operand(n, k, 2), wb = make_operand(n, k, 3),
               wc = make_operand(n, k, 4);
  const Tensor bias = make_operand(1, n, 5);
  const std::vector<unsigned char> active(static_cast<std::size_t>(n), 1);
  Tensor c({m, n});
  const auto run = [&](const Tensor& w, std::uint64_t id) {
    c.zero();
    gemm_nt_cols_bias(a, w, c, active.data(), bias.data(), false, id);
  };

  const std::uint64_t ida = new_pack_id(), idb = new_pack_id(),
                      idc = new_pack_id();
  run(wa, ida);
  run(wb, idb);
  EXPECT_EQ(pack_cache_entries(), 2u);
  run(wa, ida);  // hit: A becomes most-recent, B is now LRU

  const std::uint64_t ev0 = evictions().value();
  run(wc, idc);  // 3rd entry exceeds 1 MiB -> evicts B
  EXPECT_EQ(pack_cache_entries(), 2u);
  EXPECT_LE(pack_cache_bytes(), std::size_t{1} << 20);
  EXPECT_GT(evictions().value(), ev0);

  std::uint64_t h0 = hits().value();
  run(wa, ida);  // survivor
  run(wc, idc);  // survivor
  EXPECT_EQ(hits().value(), h0 + 2);
  const std::uint64_t m0 = misses().value();
  run(wb, idb);  // was evicted -> miss
  EXPECT_GT(misses().value(), m0);

  // Entries larger than the whole limit are never inserted.
  flush_pack_cache();
  set_pack_cache_limit_mb(0);
  run(wa, ida);
  EXPECT_EQ(pack_cache_entries(), 0u);
}

TEST_F(PackCacheTest, FlushedBySetGemmBlocking) {
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  const int m = 4, k = 64, n = 48;
  const Tensor a = make_operand(m, k, 6);
  const Tensor w = make_operand(n, k, 7);
  const Tensor bias = make_operand(1, n, 8);
  const std::vector<unsigned char> active(static_cast<std::size_t>(n), 1);
  const std::uint64_t id = new_pack_id();
  Tensor c({m, n});
  c.zero();
  gemm_nt_cols_bias(a, w, c, active.data(), bias.data(), false, id);
  ASSERT_GT(pack_cache_entries(), 0u);

  // Blocking changes alter the packed layout; stale panels must not survive.
  set_gemm_blocking(GemmBlocking{8, 16, 24, false, 0, 0});
  EXPECT_EQ(pack_cache_entries(), 0u);

  // Flipping blockings between forwards stays bitwise-correct (the bug this
  // guards against: serving a pack laid out for the previous nc). Ground
  // truth is the uncached dispatching path (pack_id 0) — blocked bits are
  // blocking-independent within a tier, so one `want` covers every flip.
  Tensor want({m, n});
  want.zero();
  gemm_nt_cols_bias(a, w, want, active.data(), bias.data(), false, 0);
  c.zero();
  gemm_nt_cols_bias(a, w, c, active.data(), bias.data(), false, id);
  EXPECT_TRUE(bitwise_equal(want, c, "after blocking flip"));
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  c.zero();
  gemm_nt_cols_bias(a, w, c, active.data(), bias.data(), false, id);
  EXPECT_TRUE(bitwise_equal(want, c, "after flip back"));
}

TEST_F(PackCacheTest, TierChangeRetiresCachedPanels) {
  // The cache key carries the ISA tier (panel width NR differs per tier);
  // set_isa_tier additionally flushes, so panels packed for a retired tier
  // neither pin capacity nor ever serve a lookup. Repacking under the new
  // tier must reproduce that tier's uncached bits at every cache state.
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  const int m = 4, k = 64, n = 48;
  const Tensor a = make_operand(m, k, 6);
  const Tensor w = make_operand(n, k, 7);
  const Tensor bias = make_operand(1, n, 8);
  const std::vector<unsigned char> active(static_cast<std::size_t>(n), 1);
  const std::uint64_t id = new_pack_id();
  Tensor c({m, n});
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (!isa_tier_compiled(tier)) continue;
    set_isa_tier(tier);
    EXPECT_EQ(pack_cache_entries(), 0u)
        << "stale panels survived the switch to " << isa_tier_name(tier);
    Tensor want({m, n});
    want.zero();
    gemm_nt_cols_bias(a, w, want, active.data(), bias.data(), true, 0);
    c.zero();
    gemm_nt_cols_bias(a, w, c, active.data(), bias.data(), true, id);  // cold
    EXPECT_TRUE(bitwise_equal(want, c,
                              std::string("cold at ") + isa_tier_name(tier)));
    c.zero();
    gemm_nt_cols_bias(a, w, c, active.data(), bias.data(), true, id);  // warm
    EXPECT_TRUE(bitwise_equal(want, c,
                              std::string("warm at ") + isa_tier_name(tier)));
  }
}

TEST_F(PackCacheTest, ConcurrentReplicaAccess) {
  // Serving replicas share the global cache: one pack_id per layer, many
  // worker threads running find/insert/evict concurrently. TSan re-runs
  // this; the assertions here are parity + no lost results.
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  set_pack_cache_limit_mb(1);  // tight: forces concurrent eviction too
  const int m = 2, k = 256, n = 512;
  const Tensor a = make_operand(m, k, 9);
  const Tensor shared_w = make_operand(n, k, 10);
  const Tensor bias = make_operand(1, n, 12);
  const std::vector<unsigned char> active(static_cast<std::size_t>(n), 1);
  Tensor want({m, n});
  want.zero();
  // Uncached dispatching run: what every cached run must reproduce.
  gemm_nt_cols_bias(a, shared_w, want, active.data(), bias.data(), true, 0);
  const std::uint64_t shared_id = new_pack_id();

  constexpr int kThreads = 4, kIters = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Tensor own_w = make_operand(n, k, 100 + static_cast<unsigned>(t));
      const std::uint64_t own_id = new_pack_id();
      Tensor own_want({m, n}), c({m, n});
      own_want.zero();
      gemm_nt_cols_bias(a, own_w, own_want, active.data(), bias.data(), true,
                        0);
      for (int i = 0; i < kIters; ++i) {
        c.zero();
        gemm_nt_cols_bias(a, shared_w, c, active.data(), bias.data(), true,
                          shared_id);
        if (std::memcmp(c.data(), want.data(),
                        sizeof(float) * static_cast<std::size_t>(c.numel())) !=
            0) {
          ++mismatches;
        }
        c.zero();
        gemm_nt_cols_bias(a, own_w, c, active.data(), bias.data(), true,
                          own_id);
        if (std::memcmp(c.data(), own_want.data(),
                        sizeof(float) * static_cast<std::size_t>(c.numel())) !=
            0) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(PackCacheTest, TrainedModelBitwiseIdenticalCacheOnOff) {
  // The cache must be invisible to training: identical seeds + data with the
  // cache enabled vs STEPPING_PACK_CACHE_MB=0 semantics end in bitwise
  // identical parameters (training forwards bypass the cache, and inference
  // hits return the exact pack_b bytes).
  // Gates off so even the tiny model's GEMMs take the blocked/cached path.
  set_gemm_blocking(GemmBlocking{64, 256, 1024, false, 0, 0});
  const auto train_once = [](long limit_mb) {
    flush_pack_cache();
    set_pack_cache_limit_mb(limit_mb);
    DataSplit data = make_synthetic(
        synth_cifar10(/*train_per_class=*/6, /*test_per_class=*/2));
    ModelConfig mc{.classes = 10, .expansion = 1.0, .width_mult = 0.15,
                   .seed = 21};
    Network net = build_lenet3c1l(mc);
    Sgd sgd(SgdConfig{.lr = 0.05});
    Rng rng(13);
    train_plain(net, data.train, sgd, 1, /*epochs=*/2, /*batch=*/20, rng);
    evaluate(net, data.test, 1);  // inference pass exercises the cache path
    train_plain(net, data.train, sgd, 1, /*epochs=*/1, /*batch=*/20, rng);
    return net;
  };
  Network on = train_once(64);
  Network off = train_once(0);

  const auto pa = on.params();
  const auto pb = off.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(
        bitwise_equal(pa[i]->value, pb[i]->value,
                      "param " + std::to_string(i) + " cache on vs off"));
  }
  Rng rng(3);
  Tensor x({2, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  EXPECT_TRUE(bitwise_equal(on.forward(x, ctx), off.forward(x, ctx),
                            "trained logits cache on vs off"));
}

}  // namespace
}  // namespace stepping
