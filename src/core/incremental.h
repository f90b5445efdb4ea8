// Incremental inference with exact computational reuse (the paper's headline
// property: a smaller subnet's intermediate results feed directly into
// larger subnets without recomputation, and a larger subnet's results mask
// down to any smaller one).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/network.h"

namespace stepping {

/// One stateless batched ladder step over externally-owned activation state
/// (the serve batch re-formation path): evaluate subnet `to` on the
/// stacked input `x` (B, C, H, W), given `layer_outputs` — one entry per
/// layer, all B rows at subnet `from` — and overwrite `layer_outputs` with
/// the subnet-`to` state. The network runs stage by stage (nn/stage.h), so
/// only the entry of each stage's last layer holds a tensor, the stage's
/// output; the entries of the layers inside a stage (a fused conv's BN,
/// ReLU and pre-pool planes) are left empty. `from == 0` is a cold start
/// (layer_outputs is resized and filled from scratch); `from == to` adds no
/// unit and recomputes only the head.
///
/// Because every batched kernel computes each output row independently and
/// in serial order (the PR 1 thread-pool invariant), a row's values depend
/// only on its own input and cached state — NEVER on which other rows share
/// the batch. Callers may therefore re-stack rows from *different* earlier
/// batches between steps and still get outputs bitwise identical to any
/// other batch composition (property-tested in tests/serve_reform_test.cc).
/// advance() wraps this function with a cached, self-checking state.
///
/// Returns the last layer's output (the logits tensor, B x classes).
Tensor ladder_step(Network& net, const Tensor& x,
                   std::vector<Tensor>& layer_outputs, int from, int to);

/// Analytic per-image MACs ladder_step(from, to) executes: weights of units
/// newly added in (from, to] plus a full head recompute.
std::int64_t ladder_step_macs(Network& net, int from, int to);

/// Version vector of every parameter in wiring order — the weight half of a
/// ladder state's identity. Any SGD step or deserialization bumps at least
/// one Param::version, changing the signature; clone() copies versions
/// verbatim, so replicas of one model agree.
std::vector<std::uint64_t> network_signature(Network& net);

/// Per-tile 64-bit FNV-1a fingerprints of a (N, C, H, W) input: one hash per
/// spatial tile, folded across all images and channels. Grid is
/// ceil(H/tile) x ceil(W/tile), row-major; a tile spanning the plane hashes
/// every byte in memory order. Throws std::invalid_argument if tile < 1.
void tile_fingerprints(const Tensor& x, int tile,
                       std::vector<std::uint64_t>& grid);

/// The cached ladder of one input source: every stage's output at `level`
/// (as ladder_step leaves it), plus the identity of the input (shape and
/// tile fingerprints) and of the weights (signature) it was computed from.
struct LadderState {
  int level = 0;                         ///< cached subnet level (0 = empty)
  std::vector<Tensor> layer_outputs;     ///< one per layer; stage outputs only
  std::vector<int> in_shape;             ///< input shape the state matches
  int tile = 0;                          ///< tile edge `tiles` was built with
  std::vector<std::uint64_t> tiles;      ///< tile_fingerprints of the input
  std::vector<std::uint64_t> signature;  ///< network_signature at build time

  /// Forget everything: the next advance() rebuilds cold.
  void reset();
};

/// Outcome of one advance() call.
struct LadderResult {
  Tensor logits;               ///< last layer's output at `level`
  std::int64_t macs = 0;       ///< analytic MACs this call executed
  std::int64_t full_macs = 0;  ///< MACs of a full pass at `level`
  int dirty_tiles = 0;         ///< tiles whose fingerprint changed (0 if cold)
  int total_tiles = 0;         ///< tiles in the fingerprint grid
  /// True only when the state could not be used: empty (first input, or
  /// the call after a fault), or built under another signature, input
  /// shape or tile edge.
  bool cold = false;
};

/// Evaluate subnet `level` on `x` (N, C, H, W), reusing `st` wherever reuse
/// is exact, and update `st` to describe (x, level). This is the only code
/// that decides ladder reuse:
///  * an unusable state (see LadderResult::cold) rebuilds with a full pass
///    at `level`, and so does a dirty region that covers the whole plane;
///  * otherwise the dirty tiles run a delta pass at the cached level: each
///    conv stage recomputes only the output rows its dirty input reaches
///    (plus the receptive-field halo, widened to whole pool windows)
///    through Stage::forward_delta, and every other stage reruns its
///    forward on its exact spliced input;
///  * then the state steps UP through ladder_step (only the joining units
///    run) or masks DOWN (paper §II: every unit of the smaller subnet
///    already holds the value that subnet computes, so the extra units are
///    zeroed and only the head is recomputed). An unchanged input at the
///    cached level returns the cached logits at zero MACs.
/// Every stage output afterwards is bitwise identical to a cold
/// ladder_step(0, level). `signature` must be network_signature(net);
/// callers whose weights never change may compute it once. A tile < 1
/// throws std::invalid_argument before `st` is touched; if anything later
/// throws, `st` is left empty, so a half-updated ladder is never reused.
/// This is advance_rows()'s one-row call.
LadderResult advance(Network& net, LadderState& st, const Tensor& x,
                     int level, int tile,
                     const std::vector<std::uint64_t>& signature);

/// One row of advance_rows(): a ladder state and its next input.
struct LadderRow {
  LadderState* st = nullptr;
  const Tensor* x = nullptr;
};

/// advance(net, *row.st, *row.x, level, tile, signature) for every row
/// (distinct states), with ONE batched delta pass for the rows whose state
/// is usable and cached at exactly `level` and whose one image changed in
/// part. Each such row keeps its own dirty rectangle through every stage,
/// so it computes exactly the positions, and is charged exactly the MACs,
/// of advance() on it alone. Every other row runs on its own first. So each
/// result, and each state afterwards, is bitwise what advance() on that row
/// alone gives. No state is touched before every row's tiles are
/// fingerprinted; if anything later throws, every state in `rows` is reset
/// (the next call rebuilds it cold) and the exception propagates.
std::vector<LadderResult> advance_rows(
    Network& net, std::span<const LadderRow> rows, int level, int tile,
    const std::vector<std::uint64_t>& signature);

/// Evaluates subnets on the SAME input in any order, computing at each step
/// up only the units the new subnet adds (plus the always-recomputed head)
/// and masking on each step down. Because a unit's input set is identical
/// in every subnet containing it (structural rule s(u) <= s(v)), reused
/// activations are bit-identical to a full evaluation —
/// property-tested in tests/core.
///
/// Typical use (resource-varying platform):
///   IncrementalExecutor ex(net);
///   Tensor logits1 = ex.run(x, 1);     // fast preliminary decision
///   ... more compute becomes available ...
///   Tensor logits3 = ex.run(x, 3);     // refine, reusing subnet-1 work
///
/// NOT thread-safe: run() mutates the cached activations, and the executor
/// also runs forward passes on the shared Network (whose layers cache
/// activations themselves). Use one executor per thread over its own
/// Network replica (Network::clone()). Concurrent run() calls are caught by
/// a debug-mode re-entrancy assert.
///
/// The executor is one LadderState driven through advance() with a single
/// tile spanning the input plane, re-reading network_signature(net) on
/// every run: an unchanged input under unchanged weights steps or masks,
/// while any changed input byte or Param::version bump rebuilds the whole
/// ladder. The input is identified by a 64-bit FNV-1a hash rather than a
/// retained copy; a collision (probability ~2^-64 per changed input) would
/// silently reuse the stale cache — call reset() between inputs to bypass
/// the fingerprint when that risk is unacceptable.
class IncrementalExecutor {
 public:
  explicit IncrementalExecutor(Network& net);

  /// Evaluate subnet `subnet_id`, reusing the cached ladder (see advance()).
  Tensor run(const Tensor& x, int subnet_id);

  /// Forget cached activations.
  void reset() { state_.reset(); }

  /// MACs actually executed by the last run() call (analytic count).
  std::int64_t last_step_macs() const { return last_step_macs_; }

  /// MACs a from-scratch evaluation of the last subnet would execute.
  std::int64_t last_full_macs() const { return last_full_macs_; }

  /// Subnet id the cache currently represents (0 = empty).
  int cached_subnet() const { return state_.level; }

  /// The cached ladder (read-only).
  const LadderState& state() const { return state_; }

 private:
  Network& net_;
  LadderState state_;
  std::int64_t last_step_macs_ = 0;
  std::int64_t last_full_macs_ = 0;
  bool in_run_ = false;  // debug re-entrancy guard (asserted in run())
};

}  // namespace stepping
