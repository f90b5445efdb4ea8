// Streaming inference with per-stream ladder state.
//
// A video/sensor stream presents near-duplicate inputs frame after frame.
// This module keeps each stream's previous-frame ladder (a LadderState: the
// cached output of every inference stage, at some subnet level) in a keyed
// LRU cache and drives it through advance_rows() (core/incremental.h),
// which fingerprints the new frame per spatial tile and recomputes only the
// dirty tiles plus each convolution's receptive-field halo through the conv
// stack (Stage::propagate_dirty_region / forward_delta, nn/stage.h). A fused
// conv stage widens that region to whole pool windows and recomputes them
// with BN, ReLU and the pool in one pass. Several streams' frames run as
// one batched delta pass (stream_delta_batch), each with its own dirty
// rectangle, so each costs exactly what its one-frame pass would. The
// result is BITWISE identical to a full forward pass at the same level:
//  * a stage output position whose receptive field reads only clean input
//    keeps its cached bits (they ARE what a full pass would produce);
//  * recomputed positions go through the same implicit-GEMM conv and
//    epilogue as a full pass (conv2d_implicit in tensor/ops.h), restricted
//    to the region, and every output element's FP op sequence folds over
//    its own receptive field only, so the recomputed values match the full
//    pass bit for bit;
//  * after the splice every downstream stage's input is exact, so stages
//    without a delta path simply run their plain forward.
//
// Invalidation is by version: a stream state remembers the network signature
// (every Param::version, bumped by optimizer steps and deserialization) it
// was built under; a mismatch rebuilds cold. Network::clone() copies
// versions verbatim, so all serve replicas share one signature and stream
// state migrates freely across workers.
//
// Env surface:
//   STEPPING_STREAM          off (default) | exact — master switch (serve)
//   STEPPING_STREAM_STREAMS  LRU capacity in streams (64)
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"
#include "nn/network.h"

namespace stepping::stream {

struct StreamConfig {
  /// Master switch; "exact" is the only delta mode (approximate modes would
  /// break the bitwise contract and are deliberately not offered).
  bool enabled = false;
  /// Tile edge in pixels for the per-tile frame fingerprint.
  int tile = 8;
  /// Maximum number of streams the state cache retains (LRU beyond this).
  int capacity = 64;
};

/// Resolve {STEPPING_STREAM, STEPPING_STREAM_STREAMS}.
StreamConfig stream_config_from_env();

using stepping::network_signature;
using stepping::tile_fingerprints;

/// Cached ladder of one stream, guarded by `mu`: one frame of one stream
/// executes at a time; different streams proceed concurrently.
struct StreamState : LadderState {
  std::mutex mu;
};

/// Keyed, lock-striped LRU of whole activation ladders, one per stream id.
/// acquire() returns a shared_ptr so an evicted state stays alive for the
/// frame currently using it; eviction only drops the cache's reference.
class StreamStateCache {
 public:
  explicit StreamStateCache(int capacity);

  /// Look up (and LRU-touch) the state for `stream_id`, creating an empty
  /// one on miss. `hit` reports whether the state already existed.
  std::shared_ptr<StreamState> acquire(std::uint64_t stream_id, bool* hit);

  /// Drop all cached states (tests; config changes).
  void clear();

  std::int64_t size() const;
  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t evictions() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::uint64_t, std::shared_ptr<StreamState>>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
  };
  static constexpr int kShards = 8;

  Shard& shard_of(std::uint64_t id) { return shards_[id % kShards]; }

  Shard shards_[kShards];
  int shard_capacity_;  ///< capacity split evenly across shards (min 1)
  mutable std::mutex stats_mu_;
  std::int64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

/// Outcome of one streamed frame.
using StreamResult = LadderResult;

/// advance(net, st, x, level, cfg.tile, signature) under a "stream.delta"
/// trace span: stream_delta_batch's one-frame call. Caller holds st.mu.
StreamResult stream_delta_forward(Network& net, StreamState& st,
                                  const Tensor& x, int level,
                                  const StreamConfig& cfg,
                                  const std::vector<std::uint64_t>& signature);

/// The frames of several streams, one per state, as one batched delta pass:
/// advance_rows(net, frames, level, cfg.tile, signature) under one
/// "stream.delta" trace span. Each result equals stream_delta_forward's for
/// that frame alone. Caller holds every state's mu.
std::vector<StreamResult> stream_delta_batch(
    Network& net, std::span<const LadderRow> frames, int level,
    const StreamConfig& cfg, const std::vector<std::uint64_t>& signature);

}  // namespace stepping::stream
