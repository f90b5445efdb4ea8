// Streaming inference tests (ISSUE 10).
//
// The tentpole contract: STEPPING_STREAM=exact is performance-only. A frame
// evaluated through the dirty-tile delta path produces logits BITWISE
// identical to a from-scratch forward of the same subnet on the same frame —
// for every tile size, patch position (interior, edge, corner), subnet-level
// schedule, worker count and re-formation mode. Cached state is invalidated
// by the Param::version signature, never trusted across weight changes.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/models.h"
#include "serve/server.h"
#include "stream/stream.h"
#include "tensor/gemm_isa.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

/// The hand-built 3-subnet network the incremental tests use.
Network nested_net() {
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15};
  Network net = build_lenet3c1l(mc);
  for (MaskedLayer* m : net.body_layers()) {
    for (int u = 0; u < m->num_units(); ++u) {
      m->set_unit_subnet(u, 1 + (u % 3));
    }
  }
  return net;
}

Tensor random_frame(std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({1, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  return x;
}

/// Add `delta` to a ph x pw patch at (r, c) in every channel (clipped).
void perturb_patch(Tensor& x, int r, int c, int ph, int pw, float delta) {
  const int n = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < ch; ++k) {
      float* plane = x.data() + (static_cast<std::int64_t>(i) * ch + k) * h * w;
      for (int rr = r; rr < std::min(h, r + ph); ++rr) {
        for (int cc = c; cc < std::min(w, c + pw); ++cc) {
          if (rr >= 0 && cc >= 0) plane[rr * w + cc] += delta;
        }
      }
    }
  }
}

Tensor direct_forward(Network& net, const Tensor& x, int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  return net.forward(x, ctx);
}

void expect_bitwise(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) *
                               static_cast<std::size_t>(want.numel())))
      << what;
}

// ---------------------------------------------------------------------------
// conv_dirty_out_region: pinned against a brute-force receptive-field scan
// over a kernel x stride x pad grid.
// ---------------------------------------------------------------------------

/// Brute force: bounding box of output positions whose receptive field reads
/// at least one input position inside `in`.
SpatialRegion brute_force_dirty(const Conv2dGeometry& g,
                                const SpatialRegion& in) {
  SpatialRegion out;
  bool any = false;
  for (int y = 0; y < g.out_h(); ++y) {
    for (int x = 0; x < g.out_w(); ++x) {
      bool dirty = false;
      for (int i = 0; i < g.kernel && !dirty; ++i) {
        const int r = y * g.stride - g.pad + i;
        if (r < in.r0 || r >= in.r1) continue;
        for (int j = 0; j < g.kernel; ++j) {
          const int c = x * g.stride - g.pad + j;
          if (c >= in.c0 && c < in.c1) {
            dirty = true;
            break;
          }
        }
      }
      if (!dirty) continue;
      if (!any) {
        out = {y, y + 1, x, x + 1};
        any = true;
      } else {
        out.r0 = std::min(out.r0, y);
        out.r1 = std::max(out.r1, y + 1);
        out.c0 = std::min(out.c0, x);
        out.c1 = std::max(out.c1, x + 1);
      }
    }
  }
  return out;
}

TEST(StreamRegion, ConvDirtyOutRegionMatchesBruteForce) {
  for (const int kernel : {1, 2, 3, 5}) {
    for (const int stride : {1, 2, 3}) {
      for (const int pad : {0, 1, 2}) {
        Conv2dGeometry g;
        g.in_c = 1;
        g.in_h = 13;
        g.in_w = 11;
        g.out_c = 1;
        g.kernel = kernel;
        g.stride = stride;
        g.pad = pad;
        if (g.out_h() < 1 || g.out_w() < 1) continue;
        const SpatialRegion regions[] = {
            {0, 1, 0, 1},    // top-left corner pixel
            {12, 13, 10, 11},  // bottom-right corner pixel
            {5, 8, 3, 7},    // interior rectangle
            {0, 13, 4, 5},   // full-height stripe
            {6, 7, 0, 11},   // full-width stripe
        };
        for (const SpatialRegion& in : regions) {
          const SpatialRegion got =
              conv_dirty_out_region(g, in).clipped(g.out_h(), g.out_w());
          const SpatialRegion want = brute_force_dirty(g, in);
          EXPECT_EQ(got, want)
              << "k=" << kernel << " s=" << stride << " p=" << pad << " in=["
              << in.r0 << "," << in.r1 << ")x[" << in.c0 << "," << in.c1
              << ")";
        }
      }
    }
  }
}

TEST(StreamRegion, TileFingerprintFlagsExactlyTheChangedTile) {
  Tensor x = random_frame(31);
  std::vector<std::uint64_t> before, after;
  stream::tile_fingerprints(x, 8, before);
  ASSERT_EQ(before.size(), 16u);  // 32/8 x 32/8
  // One pixel in tile (2, 1): row 17, col 12.
  perturb_patch(x, 17, 12, 1, 1, 0.5f);
  stream::tile_fingerprints(x, 8, after);
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i == 2 * 4 + 1) {
      EXPECT_NE(before[i], after[i]) << "changed tile must re-hash";
    } else {
      EXPECT_EQ(before[i], after[i]) << "clean tile " << i << " re-hashed";
    }
  }
}

// ---------------------------------------------------------------------------
// Dirty-tile / halo correctness: bitwise identity over a tile-size x patch-
// position grid, including MAC savings on small patches.
// ---------------------------------------------------------------------------

TEST(StreamDelta, BitwiseIdenticalAcrossTileSizesAndPatchPositions) {
  Network net = nested_net();
  const stream::StreamConfig base;
  const auto sig = stream::network_signature(net);
  const struct { int r, c; } positions[] = {
      {0, 0},    // top-left corner (halo clips at the border)
      {26, 26},  // bottom-right corner
      {12, 14},  // interior
      {0, 14},   // top edge
      {14, 26},  // right edge
  };
  for (const int tile : {4, 8, 16}) {
    stream::StreamConfig cfg = base;
    cfg.tile = tile;
    for (const auto& pos : positions) {
      stream::StreamState st;
      Tensor frame = random_frame(100 + tile);
      const stream::StreamResult cold =
          stream_delta_forward(net, st, frame, 3, cfg, sig);
      EXPECT_TRUE(cold.cold);
      EXPECT_EQ(cold.macs, cold.full_macs);
      expect_bitwise(cold.logits, direct_forward(net, frame, 3), "cold frame");

      perturb_patch(frame, pos.r, pos.c, 6, 6, 0.25f);
      const stream::StreamResult warm =
          stream_delta_forward(net, st, frame, 3, cfg, sig);
      EXPECT_FALSE(warm.cold);
      EXPECT_GT(warm.dirty_tiles, 0);
      EXPECT_LE(warm.macs, warm.full_macs);
      // A coarse grid can legitimately go all-dirty (a centered patch on a
      // 2x2 tile=16 grid); strict savings are required whenever any tile
      // stayed clean.
      if (warm.dirty_tiles < warm.total_tiles) {
        EXPECT_LT(warm.macs, warm.full_macs)
            << "tile=" << tile << " patch at (" << pos.r << "," << pos.c
            << ")";
      }
      expect_bitwise(warm.logits, direct_forward(net, frame, 3),
                     "warm delta frame");
    }
  }
}

TEST(StreamDelta, IdenticalFrameCostsZeroMacs) {
  Network net = nested_net();
  stream::StreamConfig cfg;
  const auto sig = stream::network_signature(net);
  stream::StreamState st;
  const Tensor frame = random_frame(7);
  stream_delta_forward(net, st, frame, 2, cfg, sig);
  const Tensor same = frame;  // different object, equal bytes
  const stream::StreamResult r = stream_delta_forward(net, st, same, 2, cfg, sig);
  EXPECT_FALSE(r.cold);
  EXPECT_EQ(r.dirty_tiles, 0);
  EXPECT_EQ(r.macs, 0);
  expect_bitwise(r.logits, direct_forward(net, frame, 2), "identical frame");
}

TEST(StreamDelta, LevelStepUpReusesDeltaThenLadders) {
  Network net = nested_net();
  stream::StreamConfig cfg;
  const auto sig = stream::network_signature(net);
  stream::StreamState st;
  Tensor frame = random_frame(8);
  stream_delta_forward(net, st, frame, 1, cfg, sig);
  perturb_patch(frame, 10, 10, 4, 4, 0.5f);
  const stream::StreamResult r = stream_delta_forward(net, st, frame, 3, cfg, sig);
  EXPECT_FALSE(r.cold);
  EXPECT_LT(r.macs, r.full_macs) << "delta at 1 + ladder 1->3 beats full 3";
  expect_bitwise(r.logits, direct_forward(net, frame, 3), "step-up frame");
  EXPECT_EQ(st.level, 3);
}

TEST(StreamDelta, LevelStepDownMasksAndRecomputesOnlyTheHead) {
  Network net = nested_net();
  stream::StreamConfig cfg;
  const auto sig = stream::network_signature(net);
  stream::StreamState st;
  const Tensor frame = random_frame(9);
  stream_delta_forward(net, st, frame, 3, cfg, sig);
  const stream::StreamResult r = stream_delta_forward(net, st, frame, 1, cfg, sig);
  EXPECT_FALSE(r.cold) << "step-down must mask the streamed state";
  EXPECT_EQ(r.macs, net.masked_layers().back()->subnet_macs(1));
  expect_bitwise(r.logits, direct_forward(net, frame, 1), "step-down frame");
  EXPECT_EQ(st.level, 1);
}

TEST(StreamDelta, SignatureBumpInvalidatesCachedState) {
  // Regression for the stale-state hazard the Param::version contract closes
  // (core/incremental.h): after a weight change, an unchanged frame must NOT
  // be answered from the cached ladder — the bumped version vector forces a
  // cold rebuild with the new weights.
  Network net = nested_net();
  stream::StreamConfig cfg;
  stream::StreamState st;
  const Tensor frame = random_frame(10);
  const auto sig1 = stream::network_signature(net);
  const stream::StreamResult before =
      stream_delta_forward(net, st, frame, 2, cfg, sig1);

  Param* p = net.params().front();
  p->value[0] += 0.5f;  // the write an optimizer step / deserialize does ...
  p->version++;         // ... always paired with a version bump
  const auto sig2 = stream::network_signature(net);
  ASSERT_NE(sig1, sig2);

  const stream::StreamResult after =
      stream_delta_forward(net, st, frame, 2, cfg, sig2);
  EXPECT_TRUE(after.cold) << "stale ladder served across a weight change";
  const Tensor direct = direct_forward(net, frame, 2);
  expect_bitwise(after.logits, direct, "post-bump frame");
  EXPECT_NE(0, std::memcmp(before.logits.data(), after.logits.data(),
                           sizeof(float) *
                               static_cast<std::size_t>(direct.numel())))
      << "weight perturbation should change the logits";
}

TEST(StreamDelta, TileBelowOneThrowsAndLeavesStateUnchanged) {
  Network net = nested_net();
  stream::StreamConfig cfg;
  const auto sig = stream::network_signature(net);
  stream::StreamState st;
  const Tensor frame = random_frame(11);
  stream_delta_forward(net, st, frame, 2, cfg, sig);
  const std::vector<std::uint64_t> tiles = st.tiles;
  const std::vector<Tensor> outs = st.layer_outputs;
  std::vector<std::uint64_t> grid;
  for (const int bad : {0, -1}) {
    EXPECT_THROW(stream::tile_fingerprints(frame, bad, grid),
                 std::invalid_argument);
    stream::StreamConfig bad_cfg = cfg;
    bad_cfg.tile = bad;
    EXPECT_THROW(stream_delta_forward(net, st, random_frame(12), 3, bad_cfg, sig),
                 std::invalid_argument);
    EXPECT_EQ(st.level, 2);
    EXPECT_EQ(st.tile, cfg.tile);
    EXPECT_EQ(st.tiles, tiles);
    EXPECT_EQ(st.in_shape, frame.shape());
    EXPECT_EQ(st.signature, sig);
    ASSERT_EQ(st.layer_outputs.size(), outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      expect_bitwise(st.layer_outputs[i], outs[i], "layer output after throw");
    }
  }
  // The untouched state still answers the same frame from its cache.
  const stream::StreamResult r = stream_delta_forward(net, st, frame, 2, cfg, sig);
  EXPECT_FALSE(r.cold);
  EXPECT_EQ(r.macs, 0);
}

// ---------------------------------------------------------------------------
// StreamBatch: the frames of several streams as one batched delta pass
// (advance_rows / stream_delta_batch). Every row keeps its own dirty
// rectangle, so each frame's logits, MACs, tile counts and state afterwards
// are memcmp-equal to the one-row call's (advance), and its logits to a
// direct forward — on every compiled ISA tier, at 1 and 3 threads.
// ---------------------------------------------------------------------------

/// Restores the ISA tier and thread count a test changed.
class IsaSweep : public ::testing::Test {
 protected:
  void TearDown() override {
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }

  /// Runs `body(tag)` at every compiled tier up to the detected one, at 1
  /// and 3 threads.
  template <class Body>
  void for_each_tier_and_threads(Body body) {
    for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
      const IsaTier tier = static_cast<IsaTier>(t);
      if (!isa_tier_compiled(tier)) continue;
      set_isa_tier(tier);
      for (const int threads : {1, 3}) {
        ThreadPool::set_global_threads(threads);
        body(std::string(isa_tier_name(tier)) + " threads=" +
             std::to_string(threads));
      }
    }
  }
};

using StreamBatch = IsaSweep;

void expect_same_state(const LadderState& got, const LadderState& want,
                       const std::string& tag) {
  EXPECT_EQ(got.level, want.level) << tag;
  EXPECT_EQ(got.in_shape, want.in_shape) << tag;
  EXPECT_EQ(got.tile, want.tile) << tag;
  EXPECT_EQ(got.tiles, want.tiles) << tag;
  EXPECT_EQ(got.signature, want.signature) << tag;
  ASSERT_EQ(got.layer_outputs.size(), want.layer_outputs.size()) << tag;
  for (std::size_t i = 0; i < want.layer_outputs.size(); ++i) {
    expect_bitwise(got.layer_outputs[i], want.layer_outputs[i],
                   (tag + " layer output " + std::to_string(i)).c_str());
  }
}

/// How a stream's next frame differs from its last one, or what its state
/// holds before the pass.
enum class Change {
  kPatchA,      ///< a 5x5 patch near the top-left moves
  kPatchB,      ///< a 6x6 patch near the bottom-right moves
  kIdentical,   ///< the same frame again
  kFullPlane,   ///< every pixel changes
  kCold,        ///< the stream's first frame
  kOtherLevel,  ///< state cached one level below the pass's
};

/// One batched pass over streams with the given changes, at `level`,
/// checked row by row against one-row advance() calls on copies of the same
/// states and against a direct forward.
void check_batch(Network& net, const std::vector<Change>& changes, int level,
                 const std::string& tag) {
  const int tile = 8;
  const auto sig = network_signature(net);
  const std::size_t b = changes.size();
  std::vector<LadderState> batched(b);
  std::vector<Tensor> next(b);
  for (std::size_t k = 0; k < b; ++k) {
    const Tensor base = random_frame(500 + k);
    next[k] = base;
    if (changes[k] != Change::kCold) {
      const int warm = changes[k] == Change::kOtherLevel ? level - 1 : level;
      advance(net, batched[k], base, warm, tile, sig);
    }
    switch (changes[k]) {
      case Change::kPatchA:
        perturb_patch(next[k], 2, 3, 5, 5, 0.75f);
        break;
      case Change::kPatchB:
        perturb_patch(next[k], 21, 17, 6, 6, -0.5f);
        break;
      case Change::kFullPlane:
      case Change::kOtherLevel:
        perturb_patch(next[k], 0, 0, 32, 32, 0.125f);
        break;
      case Change::kIdentical:
      case Change::kCold:
        break;
    }
  }
  std::vector<LadderState> solo = batched;
  std::vector<LadderRow> rows(b);
  for (std::size_t k = 0; k < b; ++k) rows[k] = {&batched[k], &next[k]};
  const std::vector<LadderResult> got = advance_rows(net, rows, level, tile, sig);
  ASSERT_EQ(got.size(), b) << tag;
  for (std::size_t k = 0; k < b; ++k) {
    const std::string row = tag + " row " + std::to_string(k);
    const LadderResult want = advance(net, solo[k], next[k], level, tile, sig);
    expect_bitwise(got[k].logits, want.logits, (row + " vs one-row").c_str());
    expect_bitwise(got[k].logits, direct_forward(net, next[k], level),
                   (row + " vs direct").c_str());
    EXPECT_EQ(got[k].macs, want.macs) << row;
    EXPECT_EQ(got[k].full_macs, want.full_macs) << row;
    EXPECT_EQ(got[k].dirty_tiles, want.dirty_tiles) << row;
    EXPECT_EQ(got[k].total_tiles, want.total_tiles) << row;
    EXPECT_EQ(got[k].cold, want.cold) << row;
    expect_same_state(batched[k], solo[k], row);
    if (changes[k] == Change::kIdentical) {
      EXPECT_EQ(got[k].macs, 0) << row;
    }
    if (changes[k] == Change::kPatchA || changes[k] == Change::kPatchB) {
      EXPECT_GT(got[k].macs, 0) << row;
      EXPECT_LT(got[k].macs, got[k].full_macs) << row;
    }
  }
}

TEST_F(StreamBatch, RowsMatchOneRowPassesAndDirectForward) {
  Network net = nested_net();
  using C = Change;
  const std::vector<std::vector<Change>> cases = {
      {C::kPatchA, C::kPatchB},
      {C::kPatchB, C::kIdentical, C::kFullPlane},
      {C::kPatchA, C::kCold, C::kPatchB, C::kIdentical},
      {C::kFullPlane, C::kPatchA, C::kOtherLevel, C::kPatchB},
  };
  for_each_tier_and_threads([&](const std::string& tag) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (const int level : {2, 3}) {
        check_batch(net, cases[c], level,
                    tag + " case " + std::to_string(c) + " level " +
                        std::to_string(level));
      }
    }
  });
}

TEST_F(StreamBatch, StreamDeltaBatchServesEachFrameAsItsOwnCall) {
  Network net = nested_net();
  stream::StreamConfig cfg;
  const auto sig = stream::network_signature(net);
  for_each_tier_and_threads([&](const std::string& tag) {
    // Three streams stepped together, their copies alone. Stream 2 joins a
    // frame late, so its first frame is cold while the others run deltas,
    // and the streams' patches move by different offsets.
    stream::StreamState states[3];
    LadderState solo[3];
    Tensor frames[3] = {random_frame(61), random_frame(62), random_frame(63)};
    for (int f = 0; f < 4; ++f) {
      std::vector<LadderRow> rows;
      std::vector<int> ids;
      for (int s = 0; s < 3; ++s) {
        if (s == 2 && f == 0) continue;
        if (f > 0) {
          perturb_patch(frames[s], 3 * f + 4 * s, 2 * f + 5 * s, 4, 5, 0.3f);
        }
        rows.push_back({&states[s], &frames[s]});
        ids.push_back(s);
      }
      const std::vector<stream::StreamResult> got =
          stream::stream_delta_batch(net, rows, 3, cfg, sig);
      ASSERT_EQ(got.size(), rows.size());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const int s = ids[k];
        const std::string row = tag + " frame " + std::to_string(f) +
                                " stream " + std::to_string(s);
        const LadderResult want =
            advance(net, solo[s], frames[s], 3, cfg.tile, sig);
        expect_bitwise(got[k].logits, want.logits, row.c_str());
        EXPECT_EQ(got[k].macs, want.macs) << row;
        EXPECT_EQ(got[k].cold, want.cold) << row;
        expect_same_state(states[s], solo[s], row);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// conv2d_implicit with one region per image: memcmp-equal to one call per
// image, for empty regions, full planes, and pooled and BN epilogues.
// ---------------------------------------------------------------------------

using StreamConvRegion = IsaSweep;

TEST_F(StreamConvRegion, PerImageRegionsMatchOneCallPerImage) {
  constexpr int kUnits = 10;
  constexpr int kImages = 4;
  // Conv-plane regions, one per image; the last set is all empty.
  const std::vector<std::vector<SpatialRegion>> sets = {
      {{0, 0, 0, 0}, {0, 99, 0, 99}, {1, 4, 2, 5}, {3, 5, 0, 3}},
      {{2, 3, 1, 2}, {5, 5, 1, 3}, {0, 2, 0, 8}, {-3, 40, 3, 4}},
      {{0, 99, 0, 99}, {0, 99, 0, 99}, {4, 6, 2, 4}, {0, 1, 0, 1}},
      {{0, 0, 0, 0}, {2, 2, 0, 4}, {3, 3, 3, 3}, {1, 1, 0, 0}},
  };
  for_each_tier_and_threads([&](const std::string& tag) {
    unsigned seed = 1;
    for (const int kernel : {3, 5}) {
      for (const int stride : {1, 2}) {
        for (const int pool : {1, 2}) {
          for (const bool bn : {false, true}) {
            const Conv2dGeometry g{/*in_c=*/3, /*in_h=*/12, /*in_w=*/8, kUnits,
                                   kernel, stride, kernel / 2};
            Rng rng(seed++);
            Tensor x({kImages, g.in_c, g.in_h, g.in_w});
            fill_normal(x, 0.0f, 1.0f, rng);
            Tensor w({kUnits, g.patch()});
            fill_normal(w, 0.0f, 1.0f, rng);
            w.at(4, 3) = 0.0f;  // breaks the multi-row run it sits in
            Tensor bias({kUnits});
            fill_normal(bias, 0.0f, 0.5f, rng);
            Tensor bn_stats({4, kUnits});  // mean, inv_std, gamma, beta
            fill_normal(bn_stats, 0.5f, 0.25f, rng);
            std::vector<unsigned char> rows(kUnits, 1);
            rows[1] = rows[7] = 0;
            const std::vector<int> channels = {0, 1, 2};
            ConvEpilogue epi;
            epi.pool = pool;
            epi.relu = true;
            if (bn) {
              epi.bn_mean = bn_stats.data();
              epi.bn_inv_std = bn_stats.data() + kUnits;
              epi.bn_gamma = bn_stats.data() + 2 * kUnits;
              epi.bn_beta = bn_stats.data() + 3 * kUnits;
            }
            const int oh = g.out_h() / pool, ow = g.out_w() / pool;
            const std::int64_t in_img =
                static_cast<std::int64_t>(g.in_c) * g.in_h * g.in_w;
            const std::int64_t out_img =
                static_cast<std::int64_t>(kUnits) * oh * ow;
            for (std::size_t r = 0; r < sets.size(); ++r) {
              Tensor got({kImages, kUnits, oh, ow});
              got.fill(-7.0f);  // untouched positions keep the sentinel
              Tensor want = got;
              conv2d_implicit(x.data(), kImages, g, channels, w.data(),
                              rows.data(), bias.data(), epi, sets[r],
                              got.data());
              for (int i = 0; i < kImages; ++i) {
                conv2d_implicit(x.data() + i * in_img, 1, g, channels,
                                w.data(), rows.data(), bias.data(), epi,
                                sets[r][static_cast<std::size_t>(i)],
                                want.data() + i * out_img);
              }
              expect_bitwise(got, want,
                             (tag + " k=" + std::to_string(kernel) +
                              " s=" + std::to_string(stride) + " pool=" +
                              std::to_string(pool) + " bn=" +
                              std::to_string(bn) + " set " + std::to_string(r))
                                 .c_str());
            }
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// StreamStateCache: LRU eviction and cross-stream isolation.
// ---------------------------------------------------------------------------

TEST(StreamCache, LruEvictsOldestWithinShard) {
  // Capacity 16 over 8 shards = 2 per shard. Ids 0, 8, 16 share shard 0.
  stream::StreamStateCache cache(16);
  bool hit = false;
  auto s0 = cache.acquire(0, &hit);
  EXPECT_FALSE(hit);
  cache.acquire(8, &hit);
  EXPECT_FALSE(hit);
  cache.acquire(0, &hit);  // touch: 0 is now MRU in its shard
  EXPECT_TRUE(hit);
  cache.acquire(16, &hit);  // third id in a 2-deep shard: evicts 8 (LRU)
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.evictions(), 1);
  cache.acquire(0, &hit);
  EXPECT_TRUE(hit) << "recently-touched stream must survive the eviction";
  cache.acquire(8, &hit);
  EXPECT_FALSE(hit) << "evicted stream must re-enter cold";
  // The evicted state's shared_ptr is still alive for in-flight use.
  s0->level = 42;
  EXPECT_EQ(cache.acquire(0, &hit)->level, 42);
}

TEST(StreamCache, StatesAreIsolatedAcrossStreams) {
  stream::StreamStateCache cache(64);
  Network net = nested_net();
  stream::StreamConfig cfg;
  const auto sig = stream::network_signature(net);
  auto a = cache.acquire(1, nullptr);
  auto b = cache.acquire(2, nullptr);
  ASSERT_NE(a.get(), b.get());
  const Tensor fa = random_frame(21);
  const Tensor fb = random_frame(22);
  stream_delta_forward(net, *a, fa, 2, cfg, sig);
  stream_delta_forward(net, *b, fb, 3, cfg, sig);
  // Stream a's state is untouched by stream b's frames.
  EXPECT_EQ(a->level, 2);
  EXPECT_EQ(b->level, 3);
  expect_bitwise(a->layer_outputs.back(), direct_forward(net, fa, 2), "stream a");
  expect_bitwise(b->layer_outputs.back(), direct_forward(net, fb, 3), "stream b");
}

// ---------------------------------------------------------------------------
// Serve integration: streamed requests are bitwise identical to direct
// forwards across worker counts; non-stream traffic shares the queue
// unchanged.
// ---------------------------------------------------------------------------

TEST(ServeStream, FramesBitwiseIdenticalAcrossWorkersAndReform) {
  Network net = nested_net();
  Network ref = net.clone();
  constexpr int kStreams = 3;
  constexpr int kFrames = 4;
  for (const int workers : {1, 3}) {
    serve::ServeConfig cfg;
    cfg.max_subnet = 3;
    cfg.num_workers = workers;
    cfg.max_batch = 4;
    cfg.admit = serve::AdmitPolicy::kOff;
    cfg.stream = 1;
    serve::Server server(net, cfg);
    // Per-stream drifting scenes: a patch walks across a fixed base frame.
    std::vector<Tensor> frames(kStreams);
    for (int s = 0; s < kStreams; ++s) {
      frames[static_cast<std::size_t>(s)] =
          random_frame(300 + static_cast<std::uint64_t>(s));
    }
    for (int f = 0; f < kFrames; ++f) {
      // One frame per stream in flight at a time (frames of one stream are
      // ordered; distinct streams run concurrently).
      std::vector<std::future<serve::ServedResult>> futs;
      for (int s = 0; s < kStreams; ++s) {
        if (f > 0) {
          perturb_patch(frames[static_cast<std::size_t>(s)], 2 + 3 * f,
                        4 + 2 * f + s, 5, 5, 0.2f);
        }
        serve::Request req;
        req.input = frames[static_cast<std::size_t>(s)];
        req.stream_id = static_cast<std::uint64_t>(s + 1);
        futs.push_back(server.submit(std::move(req)));
      }
      // A plain (stream_id = 0) request rides the same queue untouched.
      serve::Request plain;
      plain.input = random_frame(900 + static_cast<std::uint64_t>(f));
      const Tensor plain_input = plain.input;
      futs.push_back(server.submit(std::move(plain)));

      for (int s = 0; s < kStreams; ++s) {
        const serve::ServedResult res =
            futs[static_cast<std::size_t>(s)].get();
        const Tensor direct = direct_forward(
            ref, frames[static_cast<std::size_t>(s)], res.exit_subnet);
        ASSERT_EQ(res.logits.shape(), direct.shape());
        ASSERT_EQ(0, std::memcmp(res.logits.data(), direct.data(),
                                 sizeof(float) * static_cast<std::size_t>(
                                                     direct.numel())))
            << "workers=" << workers << " stream=" << s << " frame=" << f;
      }
      const serve::ServedResult plain_res = futs.back().get();
      const Tensor plain_direct =
          direct_forward(ref, plain_input, plain_res.exit_subnet);
      ASSERT_EQ(0, std::memcmp(plain_res.logits.data(), plain_direct.data(),
                               sizeof(float) * static_cast<std::size_t>(
                                                   plain_direct.numel())))
          << "non-stream request disturbed by stream traffic";
    }
  }
}

}  // namespace
}  // namespace stepping
