// Per-request flight recorder (ISSUE 8): an always-on, lock-free ring of
// per-request records, each holding a bounded causal timeline of the
// request's life in the serving subsystem — enqueue, admit, batch-join,
// per-level step start/end, preliminary publish, halt (with reason), final
// publish — stamped with the server's monotonic clock, plus the planner's
// predicted per-level costs next to the measured ones.
//
// Contract (the house observability rules):
//  * Observation-only: the recorder writes its own memory and reads a clock
//    the caller supplies; it never changes scheduling, allocation or
//    numerics of the recorded code. Served results are bitwise identical
//    with the recorder on or off (test-pinned in tests/flight_test.cc).
//  * Lock-free hot path: a record slot is claimed with one fetch_add + one
//    CAS; events are plain stores into the claimed slot (exactly one thread
//    owns a request at any time — the submitter hands it to a worker
//    through the queue mutex, which orders the accesses). No allocation.
//  * Drop, never block: when the ring wraps onto a record that is still
//    open (an in-flight request), recording for the new request is dropped
//    and counted — begin() returns a null handle and every later call with
//    it is a no-op. A full per-record event array likewise drops further
//    events and counts them.
//  * ~ns when off: STEPPING_FLIGHT_RING=0 disables the ring; begin() is
//    then one branch and every event site costs a null-handle check
//    (measured in bench_serve; see EXPERIMENTS.md).
//
// Postmortems: finish() copies deadline misses (most recent
// STEPPING_FLIGHT_RETAIN) and the worst-N completed requests by final
// latency (STEPPING_FLIGHT_STRAGGLERS) into retained buffers under a mutex
// — a rare path, guarded by a relaxed threshold so the common case costs
// one atomic load. postmortems_json() renders them with deterministic
// formatting; the kTimeline TCP opcode and `steppingnet serve
// --postmortem-dump` expose the same bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace stepping::obs {

/// Timeline event kinds, in the order a request's life produces them.
enum class FlightEventKind : int {
  kEnqueue = 0,       ///< admitted into the EDF queue
  kAdmit = 1,         ///< popped by a worker; a0 = worker id
  kBatchJoin = 2,     ///< joined a micro-batch; a0 = batch id, a1 = size
  kStepStart = 3,     ///< ladder pass begins; a0 = level, a1 = isa
  kStepEnd = 4,       ///< pass done; a0 = level, a1 = MACs, a2 = conf ppm
  kPrelimPublish = 5, ///< first answer out; a0 = level, a1 = conf ppm
  kHalt = 6,          ///< refinement stops; a0 = reason, a1 = level
  kFinalPublish = 7,  ///< promise fulfilled; a0 = exit level, a1 = missed
  /// Predictive admission control (ISSUE 9): the enqueue-time verdict.
  /// a0 = decision (0 accept / 1 degrade / 2 reject), a1 = admitted target
  /// level (0 when rejected), a2 = predicted queue wait in microseconds.
  kAdmitDecision = 8,
  /// Batch re-formation (ISSUE 9): a surviving request re-joined a NEW
  /// micro-batch after a ladder step; a0 = batch id, a1 = batch size,
  /// a2 = subnet level the re-formed batch steps to.
  kBatchRejoin = 9,
  /// Streaming inference (ISSUE 10): the request was served as one frame of
  /// a temporal stream; a0 = stream id, a1 = dirty tiles in this frame's
  /// diff (0 on a cold rebuild or an unchanged frame), a2 = subnet level.
  kStreamFrame = 10,
  /// Streaming inference (ISSUE 10): the delta path's reuse accounting for
  /// one frame; a0 = MACs saved vs a full pass, a1 = MACs executed,
  /// a2 = 1 when previous-frame state was reused (0 = cold rebuild).
  kDeltaReuse = 11,
};

/// Why a request stopped climbing the ladder.
enum class HaltReason : int {
  kNone = 0,
  kTarget = 1,      ///< reached the planned target level (no deadline cap)
  kConfidence = 2,  ///< top-1 probability crossed the gate
  kBudget = 3,      ///< next step would exceed the MAC budget
  kDeadline = 4,    ///< deadline slack capped the ladder
  kMaxLevel = 5,    ///< ran the whole ladder
  kShutdown = 6,    ///< server stopped before execution
  kRejected = 7,    ///< never admitted (bad shape / queue full)
  /// Refused at enqueue by predictive admission control (ISSUE 9): the
  /// planner predicted even the smallest subnet would finish past the
  /// deadline at the current queue depth, so no GEMM was spent on it.
  kAdmitRejected = 8,
  kFailed = 9,  ///< a throw inside its serve pass; the future holds the error
};

const char* flight_event_name(FlightEventKind k);
const char* halt_reason_name(HaltReason r);

/// One timeline entry. `t_ms` is the caller's monotonic clock (the serve
/// subsystem stamps milliseconds since Server start).
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kEnqueue;
  double t_ms = 0.0;
  std::int64_t a0 = 0, a1 = 0, a2 = 0;
};

inline constexpr int kFlightMaxEvents = 32;  ///< per-record timeline bound
inline constexpr int kFlightMaxLevels = 8;   ///< per-level cost slots

/// Plain-data body of a record — copied verbatim into the retained
/// postmortem buffers, so everything here must be value-copyable.
struct FlightData {
  std::uint64_t request_id = 0;
  double submit_ms = 0.0;
  double deadline_abs_ms = 0.0;  ///< <= 0: no deadline
  std::int64_t mac_budget = 0;   ///< 0: unlimited
  int planned_target = 0;
  std::uint64_t batch_id = 0;
  int batch_size = 0;
  int isa_tier = 0;   ///< stepping::IsaTier as int
  int exit_level = 0;
  HaltReason halt = HaltReason::kNone;
  bool missed = false;
  double queue_ms = 0.0, first_ms = 0.0, final_ms = 0.0;
  /// Predicted-vs-actual per-level step cost (index = level - 1). Predicted
  /// comes from the planner at batch-join time; actual is the measured
  /// wall-clock of the batched pass; macs are the per-image step MACs.
  int num_levels = 0;
  double predicted_ms[kFlightMaxLevels] = {};
  double actual_ms[kFlightMaxLevels] = {};
  std::int64_t level_macs[kFlightMaxLevels] = {};
  int num_events = 0;
  std::uint32_t events_dropped = 0;
  FlightEvent events[kFlightMaxEvents] = {};
};

/// Opaque record handle; null (default) means "dropped — record nothing".
/// Valid from begin() until finish(); the holder must not use it after.
struct FlightHandle {
  void* slot = nullptr;
  explicit operator bool() const { return slot != nullptr; }
};

class FlightRecorder {
 public:
  struct Config {
    /// Ring capacity in records. < 0 resolves from STEPPING_FLIGHT_RING
    /// (default 1024); 0 disables recording entirely.
    int ring = -1;
    /// Retained deadline-miss postmortems (most recent kept). < 0 resolves
    /// from STEPPING_FLIGHT_RETAIN (default 32).
    int retain_misses = -1;
    /// Retained worst-N completed requests by final latency. < 0 resolves
    /// from STEPPING_FLIGHT_STRAGGLERS (default 8).
    int retain_stragglers = -1;
  };

  FlightRecorder();  ///< default Config (env-resolved knobs)
  explicit FlightRecorder(Config cfg);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return !ring_.empty(); }
  std::size_t ring_size() const { return ring_.size(); }

  /// Claim a record slot. Returns a null handle (and counts the drop) when
  /// the recorder is disabled or the ring slot is still open.
  FlightHandle begin(std::uint64_t request_id, double submit_ms,
                     double deadline_abs_ms, std::int64_t mac_budget);

  /// Append a timeline event; drops (and counts) past kFlightMaxEvents.
  void event(FlightHandle h, FlightEventKind k, double t_ms,
             std::int64_t a0 = 0, std::int64_t a1 = 0, std::int64_t a2 = 0);

  /// Record batch membership + the plan context (once, at batch join).
  void set_batch(FlightHandle h, std::uint64_t batch_id, int batch_size,
                 int planned_target, int isa_tier);

  /// Record one ladder level's predicted-vs-actual cost. Levels beyond
  /// kFlightMaxLevels are ignored (the JSON stays bounded).
  void set_level(FlightHandle h, int level, double predicted_ms,
                 double actual_ms, std::int64_t macs);

  /// Close the record: fills the outcome, retains it when it is a deadline
  /// miss or a worst-N straggler, and releases the slot for reuse. The
  /// handle is dead afterwards.
  void finish(FlightHandle h, int exit_level, HaltReason halt, bool missed,
              double queue_ms, double first_ms, double final_ms);

  std::uint64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }
  /// Requests whose recording was dropped at begin() (ring wrapped onto an
  /// open record, or the recorder is enabled-but-contended — never counts
  /// while disabled).
  std::uint64_t ring_dropped() const {
    return ring_dropped_.load(std::memory_order_relaxed);
  }
  /// Timeline events dropped to full per-record arrays.
  std::uint64_t events_dropped() const {
    return events_dropped_.load(std::memory_order_relaxed);
  }

  /// Deterministically formatted JSON dump of the retained postmortems
  /// (misses oldest-first, then stragglers worst-first) plus the recorder
  /// counters. The kTimeline TCP frame carries exactly these bytes.
  std::string postmortems_json() const;

  /// Copies of the retained buffers (tests / tools).
  std::vector<FlightData> retained_misses() const;
  std::vector<FlightData> retained_stragglers() const;

 private:
  struct Slot {
    std::atomic<std::uint32_t> state{0};  ///< kFree / kOpen / kDone
    FlightData d;
  };
  static constexpr std::uint32_t kFree = 0, kOpen = 1, kDone = 2;

  void retain(const FlightData& d);

  std::vector<Slot> ring_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> ring_dropped_{0};
  std::atomic<std::uint64_t> events_dropped_{0};

  std::size_t retain_misses_cap_ = 0;
  std::size_t retain_stragglers_cap_ = 0;
  /// Straggler fast-path filter: final_ms must beat this to take the mutex.
  /// -1 until the straggler buffer fills (everything qualifies).
  std::atomic<double> straggler_floor_{-1.0};
  mutable std::mutex retained_mu_;
  std::deque<FlightData> misses_;       ///< most recent, oldest first
  std::vector<FlightData> stragglers_;  ///< sorted by final_ms, worst first
};

}  // namespace stepping::obs
