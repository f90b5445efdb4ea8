// Confidence-gated adaptive inference on top of the incremental executor.
//
// The paper motivates SteppingNet with scenarios where "a preliminary
// decision should be made early and refined further with more computational
// resources". AdaptiveExecutor turns that into a policy: evaluate the
// smallest subnet, and step up only while the prediction is *uncertain*
// (top-1 softmax probability below a threshold). Confident easy inputs exit
// early; hard inputs climb the ladder — classic early-exit behaviour
// (cf. BranchyNet/MSDNet), but with SteppingNet every step reuses all prior
// work instead of re-running a larger branch.
#pragma once

#include <cstdint>

#include "core/incremental.h"
#include "nn/network.h"

namespace stepping {

struct AdaptiveConfig {
  /// Stop stepping once max softmax probability reaches this value.
  double confidence_threshold = 0.9;
  /// Highest executable subnet (the construction's num_subnets — required;
  /// it cannot be inferred from assignments because the discard pool N+1
  /// also appears there).
  int max_subnet = 0;
  /// Optional hard MAC budget per input (0 = unlimited): never take a step
  /// whose estimated cost would exceed the remaining budget. Combines the
  /// confidence gate with the paper's resource-constrained scenario.
  std::int64_t mac_budget = 0;
};

struct AdaptiveResult {
  Tensor logits;            ///< logits of the exit level
  int exit_subnet = 0;      ///< level the input exited at
  double confidence = 0.0;  ///< top-1 probability at exit
  std::int64_t macs = 0;    ///< MACs actually executed (with reuse)
};

/// Single-input adaptive inference (batch of 1; the policy is per-input).
class AdaptiveExecutor {
 public:
  AdaptiveExecutor(Network& net, AdaptiveConfig cfg);

  /// Run x (shape (1, C, H, W)) through the ladder until confident.
  AdaptiveResult run(const Tensor& x);

  /// Largest subnet id available in the network's assignments.
  int max_level() const { return max_level_; }

 private:
  Network& net_;
  AdaptiveConfig cfg_;
  IncrementalExecutor exec_;
  int max_level_;
};

}  // namespace stepping
