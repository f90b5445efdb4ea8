// Request / result value types of the anytime serving subsystem.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace stepping::serve {

/// One refinement step observed by a request: after the executor finishes
/// subnet `subnet`, every request alive in the micro-batch records the time,
/// its cumulative MACs and its top-1 confidence at that level. The first
/// entry (subnet = smallest level) is the preliminary anytime result; the
/// entry with `final == true` is the one returned in ServedResult::logits.
struct StepUpdate {
  int subnet = 0;
  double at_ms = 0.0;  ///< milliseconds since the request was submitted
  std::int64_t macs = 0;
  double confidence = 0.0;
  bool final = false;
  /// Always false: every served pass is fp32.
  bool int8 = false;
};

/// A unit of work for serve::Server.
struct Request {
  /// Input image, shape (1, C, H, W) or (C, H, W).
  Tensor input;
  /// Relative deadline in milliseconds from submission; <= 0 means none
  /// (the request may climb to the highest subnet).
  double deadline_ms = 0.0;
  /// Per-request MAC budget; 0 falls back to ServeConfig::default_mac_budget
  /// (where 0 again means unlimited).
  std::int64_t mac_budget = 0;
  /// Stream session id (ISSUE 10). Non-zero marks this input as one frame of
  /// a temporal stream: when the server runs with STEPPING_STREAM=exact, the
  /// frame is diffed against the stream's previous frame and only dirty
  /// tiles (+ receptive-field halos) are recomputed — bitwise identical to a
  /// full pass. 0 (default) serves the request through the ordinary batched
  /// ladder.
  std::uint64_t stream_id = 0;
  /// Optional anytime callback: invoked once per executed level while the
  /// request is alive, including the preliminary smallest-subnet result and
  /// the final one. Called from a worker thread; must be cheap and
  /// thread-safe. May be empty.
  std::function<void(const StepUpdate&)> on_step;
};

/// Final outcome of a served request.
struct ServedResult {
  Tensor logits;            ///< logits of the exit level, shape (1, classes)
  int exit_subnet = 0;      ///< subnet the request exited at (>= 1)
  double confidence = 0.0;  ///< top-1 softmax probability at exit
  std::int64_t macs = 0;    ///< per-image MACs attributed to this request
  /// True when the preliminary (smallest-subnet) result was published after
  /// the request's deadline — the anytime contract was broken.
  bool deadline_missed = false;
  double queue_ms = 0.0;         ///< time spent waiting before execution
  double first_result_ms = 0.0;  ///< submission -> preliminary result
  double final_ms = 0.0;         ///< submission -> final result
  std::vector<StepUpdate> steps; ///< one entry per level this request ran
};

}  // namespace stepping::serve
