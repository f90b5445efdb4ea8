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
#include <vector>

#include "models/models.h"
#include "serve/server.h"
#include "stream/stream.h"
#include "tensor/ops.h"

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
