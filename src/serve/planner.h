// Deadline-aware planning for anytime serving (ISSUE 2).
//
// The planner is the deterministic, clock-free core of the serving
// subsystem: given a model's per-level MAC table and a DeviceModel
// (core/latency.h), it answers the scheduling questions the server asks —
// "which subnet can this request still reach before its deadline?",
// "does the next step-up fit the remaining slack and MAC budget?" — as pure
// functions of the remaining time/budget. Workers feed it wall-clock
// remainders; unit tests feed it synthetic ones (tests/serve_test.cc drives
// every decision with a deterministic fake clock).
#pragma once

#include <cstdint>
#include <vector>

#include "core/latency.h"
#include "nn/network.h"

namespace stepping::serve {

/// Per-level analytic MAC table of a stepping model. Index convention:
/// `full[L-1]` / `body[L-1]` hold subnet L's counts, L in 1..max_level().
///
/// The incremental cost of stepping from level `from` to `to` is
///   body(to) - body(from) + head(to)  ==  full(to) - body(from)
/// (the head is always recomputed; body units added in (from, to] are the
/// only new body work — the paper's exact-reuse property).
struct LevelCosts {
  std::vector<std::int64_t> full;  ///< full from-scratch MACs of subnet L
  std::vector<std::int64_t> body;  ///< body-only (non-head) MACs of subnet L

  int max_level() const { return static_cast<int>(full.size()); }

  /// MACs of one step `from -> to` (per image). `from == 0` means a cold
  /// start, i.e. the full cost of subnet `to`.
  std::int64_t step_macs(int from, int to) const;

  /// Total MACs of stepping 0 -> 1 -> ... -> level (per image). Equals
  /// full(level) by the reuse identity, but computed as the step sum so the
  /// planner and the executor agree term by term.
  std::int64_t stepped_macs_through(int level) const;
};

/// Measure `net`'s LevelCosts analytically (uses core/macs.h).
LevelCosts measure_level_costs(Network& net, int max_level);

/// Pure scheduling decisions over a LevelCosts table and a DeviceModel.
/// Immutable after construction; safe to share across worker threads.
class Planner {
 public:
  Planner(LevelCosts costs, DeviceModel dev);

  int max_level() const { return costs_.max_level(); }
  const LevelCosts& costs() const { return costs_; }
  const DeviceModel& device() const { return dev_; }

  /// Estimated wall-clock of one step `from -> to` on a micro-batch of
  /// `batch` inputs (the batch steps together; MACs scale linearly).
  double step_ms(int from, int to, int batch = 1) const;

  /// Execution mode of one ladder pass, for cost prediction: incremental
  /// reuse (the default ladder) or from scratch (the no-reuse baseline).
  enum class LadderMode { kReuse, kFromScratch };

  /// Predicted wall-clock of the batched pass that brings the ladder to
  /// `level` under `mode` — exactly the figure the server's planning is
  /// built on. The flight recorder (ISSUE 8) stores this next to the
  /// measured pass time, and the serve_plan_error_ratio histograms track
  /// the actual/predicted ratio per level.
  double predicted_level_ms(int level, int batch, LadderMode mode) const;

  /// Estimated wall-clock of the whole ladder 0 -> 1 -> ... -> level
  /// (each step pays the device's fixed per-pass overhead once).
  double ladder_ms(int level, int batch = 1) const;

  /// Streaming delta pass pricing (ISSUE 10): one frame whose dirty region
  /// covers `dirty_frac` of the spatial plane recomputes roughly that
  /// fraction of the body convs plus the full head, so the estimate is
  ///   body(level) * dirty_frac + (full(level) - body(level))
  /// converted to wall-clock. `dirty_frac` is clamped to [0, 1]; 1 prices a
  /// cold rebuild (== the from-scratch full pass). The server uses this to
  /// decide whether a delta pass beats re-entering the batched ladder.
  double stream_delta_ms(int level, double dirty_frac, int batch = 1) const;

  /// Highest level reachable by stepping 1..L within `remaining_ms`.
  /// Returns 0 when even level 1 does not fit — the server still runs
  /// level 1 (an anytime result is always produced) but counts the request
  /// as a deadline miss candidate. `remaining_ms < 0` is treated as 0;
  /// a request with no deadline should pass +infinity (or call with
  /// remaining_ms = huge) and gets max_level().
  int target_level(double remaining_ms, int batch = 1) const;

  /// True when the step `from -> to` fits both the remaining deadline slack
  /// and the remaining per-request MAC budget. `remaining_budget < 0` means
  /// unlimited; the budget check uses per-image MACs (budgets are
  /// per-request, while the deadline check uses whole-batch latency).
  bool step_fits(int from, int to, double remaining_ms,
                 std::int64_t remaining_budget, int batch = 1) const;

  // -- Predictive admission control (ISSUE 9) ------------------------------

  /// Enqueue-time verdict on a request, given the queue state it would join.
  struct AdmitDecision {
    bool admit = true;      ///< false: predicted certain deadline miss
    bool degraded = false;  ///< admitted, but below the full ladder
    int target = 0;         ///< highest level predicted to fit (0 = none)
    double predicted_wait_ms = 0.0;  ///< queue delay fed into the verdict
  };

  /// Deterministic queue-delay estimate: `queue_depth` requests are ahead,
  /// drained by `workers` workers in micro-batches of up to `max_batch`,
  /// each batch costing at least one level-1 pass (the anytime floor —
  /// every batch answers something before this request's turn can come).
  /// A lower bound by construction, so admission never rejects a request
  /// the serve path could still have satisfied under this latency model.
  double predicted_queue_ms(std::size_t queue_depth, int workers,
                            int max_batch, LadderMode mode) const;

  /// The admission verdict at enqueue: subtract the predicted queue delay
  /// from the relative deadline and plan the reachable target level.
  /// target >= 1 admits (degraded when below max_level()); target == 0
  /// means even the smallest subnet is predicted to finish late — the
  /// request is hopeless and `admit` is false. `deadline_rel_ms <= 0`
  /// (no deadline) always admits at the full ladder. Pure function of its
  /// arguments — tests drive it with synthetic queue depths and clocks.
  AdmitDecision admit_decision(double deadline_rel_ms, std::size_t queue_depth,
                               int workers, int max_batch,
                               LadderMode mode) const;

 private:
  LevelCosts costs_;
  DeviceModel dev_;
};

}  // namespace stepping::serve
