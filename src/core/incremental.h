// Incremental step-up inference with exact computational reuse
// (the paper's headline property: a smaller subnet's intermediate results
// feed directly into larger subnets without recomputation).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/network.h"

namespace stepping {

/// One stateless batched ladder step over externally-owned activation state
/// (the serve batch re-formation path, ISSUE 9): evaluate subnet `to` on the
/// stacked input `x` (B, C, H, W), given `layer_outputs` — one cached
/// post-activation tensor per layer, all B rows at subnet `from` — and
/// overwrite `layer_outputs` with the subnet-`to` state. `from == 0` is a
/// cold start (layer_outputs is resized and filled from scratch); `from ==
/// to` adds no unit and recomputes only the head (IncrementalExecutor's
/// repeated run at one level).
///
/// Because every batched kernel computes each output row independently and
/// in serial order (the PR 1 thread-pool invariant), a row's values depend
/// only on its own input and cached state — NEVER on which other rows share
/// the batch. Callers may therefore re-stack rows from *different* earlier
/// batches between steps and still get outputs bitwise identical to any
/// other batch composition (property-tested in tests/serve_reform_test.cc).
/// IncrementalExecutor::run is this function plus an owned state + input
/// fingerprint.
///
/// Returns the last layer's output (the logits tensor, B x classes).
Tensor ladder_step(Network& net, const Tensor& x,
                   std::vector<Tensor>& layer_outputs, int from, int to);

/// Analytic per-image MACs ladder_step(from, to) executes: weights of units
/// newly added in (from, to] plus a full head recompute.
std::int64_t ladder_step_macs(Network& net, int from, int to);

/// Evaluates subnets in increasing order on the SAME input, computing at each
/// step only the units the new subnet adds (plus the always-recomputed head).
/// Because a unit's input set is identical in every subnet containing it
/// (structural rule s(u) <= s(v)), reused activations are bit-identical to a
/// from-scratch evaluation — property-tested in tests/core.
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
/// Network replica (Network::clone()) — exactly what serve::Server's
/// workers do. Concurrent run() calls are caught by a debug-mode
/// re-entrancy assert.
///
/// Input identity is tracked by a cheap fingerprint (shape + a 64-bit FNV-1a
/// hash of the bytes) rather than a retained deep copy, so long-lived
/// per-worker executors do not hold an extra input-sized buffer each. The
/// fingerprint is WHOLE-INPUT: any changed byte invalidates the entire
/// cache. Per-REGION reuse — keeping clean spatial tiles of the cached
/// activations when only part of the input changed — is deliberately NOT
/// this class's job; it lives in src/stream/ (ISSUE 10), which fingerprints
/// per tile and re-runs only dirty regions through Conv2d::forward_delta.
/// A hash collision (probability ~2^-64 per changed input) would silently
/// reuse the stale cache; call reset() between inputs to bypass the
/// fingerprint entirely when that risk is unacceptable.
///
/// The input fingerprint does NOT cover the weights. Cached activations are
/// stale the moment any Param changes (SGD step, deserialize) — executors
/// are inference-side objects and must be reset (or discarded) after
/// training steps. Long-lived holders that cannot see the training loop
/// track staleness via the Param::version counters instead:
/// stream::network_signature() snapshots all versions and src/stream/
/// rebuilds cold on any mismatch (regression-tested in tests/stream_test.cc,
/// SignatureBumpInvalidates).
class IncrementalExecutor {
 public:
  explicit IncrementalExecutor(Network& net);

  /// Evaluate subnet `subnet_id`. Larger than the cached id: step UP,
  /// computing only the newly added units. Smaller: step DOWN — the cached
  /// intermediate results are masked to the smaller subnet and only the
  /// head is recomputed (paper §II: dynamic subnet reduction also reuses).
  /// A different input resets the cache transparently.
  Tensor run(const Tensor& x, int subnet_id);

  /// Forget cached activations (call when the input changes; run() also
  /// detects changed inputs itself).
  void reset();

  /// MACs actually executed by the last run() call (analytic count).
  std::int64_t last_step_macs() const { return last_step_macs_; }

  /// MACs a from-scratch evaluation of the last subnet would execute.
  std::int64_t last_full_macs() const { return last_full_macs_; }

  /// Subnet id the cache currently represents (0 = empty).
  int cached_subnet() const { return cached_subnet_; }

 private:
  bool same_input(const Tensor& x) const;
  Tensor step_down(const Tensor& x, int subnet_id);
  void remember_input(const Tensor& x);

  Network& net_;
  std::vector<int> input_shape_;       // fingerprint: shape ...
  std::uint64_t input_hash_ = 0;       // ... + FNV-1a of the bytes
  std::vector<Tensor> layer_outputs_;  // one per layer, post-activation
  int cached_subnet_ = 0;
  std::int64_t last_step_macs_ = 0;
  std::int64_t last_full_macs_ = 0;
  bool in_run_ = false;  // debug re-entrancy guard (asserted in run())
};

}  // namespace stepping
