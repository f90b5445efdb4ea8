// The serve job and the level-indexed run queue the workers share.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "serve/result.h"

namespace stepping::serve {

/// A request admitted into the server, carrying its completion promise and
/// the absolute times the scheduler needs. Times are milliseconds on the
/// server's monotonic clock (Server start = 0) so the queue itself never
/// reads a clock — tests drive it with synthetic values.
///
/// A Job is also the MIGRATABLE per-request ladder state: after each batched
/// step the survivors go back into the run queue carrying their cached
/// activations, MAC spend and flight handle, so the next pass may re-merge
/// them with survivors of *other* batches (or another worker may pick them
/// up).
struct Job {
  std::uint64_t seq = 0;        ///< admission order, the EDF tie-breaker
  Tensor input;                 ///< (1, C, H, W)
  double submit_ms = 0.0;       ///< admission time
  double deadline_abs_ms = 0.0; ///< absolute deadline; <= 0 means none
  std::int64_t mac_budget = 0;  ///< resolved budget; 0 = unlimited
  std::uint64_t stream_id = 0;  ///< stream session (ISSUE 10); 0 = not a frame
  obs::FlightHandle flight;     ///< flight-recorder slot (null: not recorded)
  std::function<void(const StepUpdate&)> on_step;
  std::promise<ServedResult> promise;

  // -- Migratable ladder state ---------------------------------------------
  int level = 0;         ///< cached subnet level (0 = not yet executed)
  int target = 0;        ///< planned target level (0 = not yet planned)
  int admit_target = 0;  ///< admission-control degrade cap; 0 = uncapped
  std::int64_t macs = 0; ///< per-image MACs attributed so far
  double confidence = 0.0;  ///< top-1 softmax probability at `level`
  double first_ms = 0.0;    ///< submission -> preliminary result (0 = none)
  double queue_ms = 0.0;    ///< submission -> first pass start
  std::vector<StepUpdate> steps;
  /// Cached ladder state (ladder_step's per-layer entries, holding only
  /// stage outputs) of the micro-batch this request last stepped with
  /// (shared by all its rows; row `acts_row` belongs to this request). Null until the first fp32-reuse pass. A source batch's state
  /// is freed once every row has halted or re-stacked into a later batch.
  std::shared_ptr<std::vector<Tensor>> acts;
  int acts_row = 0;
};

/// Level-indexed run-queue: bucket L holds requests whose cached ladder
/// state is subnet L, waiting to step to L+1 (bucket 0 = fresh admissions).
/// Each bucket is ordered by (deadline, admission order): the earliest
/// deadline first, requests without a deadline after every deadlined one,
/// FIFO on ties. pop_batch() hands a worker up to `max_batch` SAME-LEVEL
/// jobs — a batched pass shares one subnet, so only same-level rows can ride
/// one GEMM — re-merging survivors of different earlier passes.
///
/// Bucket selection keeps the batched GEMMs full: the fullest bucket wins
/// (capped at max_batch), ties broken by the earliest (deadline, seq) head,
/// then by HIGHER level (finish in-flight work, bounding held activation
/// state). One override protects urgent work from starving behind full
/// buckets: when the globally most-urgent head's remaining slack drops
/// below `urgent_slack_ms`, its bucket is served first regardless of fill.
/// Every input that orders pops (now_ms, urgency threshold) is a caller
/// argument, so tests drive selection with synthetic clocks.
///
/// Termination protocol: pop_batch() marks the popped jobs in-flight; the
/// worker must return every one of them, either re-entering survivors via
/// push_survivor() or retiring finalized ones via retire(). close() stops
/// push() (new admissions) immediately, but survivors are ALWAYS accepted —
/// an admitted request is never dropped — and pop_batch() keeps draining
/// until the queue is empty and nothing is in flight.
class LevelRunQueue {
 public:
  /// `capacity` bounds push(): it refuses while `capacity` or more jobs
  /// wait, counting fresh admissions AND survivors waiting for their next
  /// pass (popped, in-flight jobs do not count). `max_level` sizes the
  /// bucket array (levels 0 .. max_level-1 can wait).
  LevelRunQueue(std::size_t capacity, int max_level);

  /// Admit a fresh request (level 0). Returns false (job untouched) when at
  /// capacity or closed.
  bool push(Job&& job);

  /// Re-enter a stepping survivor (job.level >= 1). Never refused, even at
  /// capacity or after close().
  void push_survivor(Job&& job);

  /// Blocks until work is available, then moves up to `max_batch` jobs of
  /// ONE level into `out` (cleared first) in EDF order. Returns false only
  /// when closed, drained, and nothing is in flight.
  bool pop_batch(int max_batch, double now_ms, double urgent_slack_ms,
                 std::vector<Job>& out);

  /// Account `n` popped jobs as finalized (their promises resolved).
  void retire(std::size_t n);

  void close();

  /// Waiting jobs across all buckets (in-flight jobs excluded).
  std::size_t depth() const;

 private:
  using Key = std::pair<double, std::uint64_t>;
  static Key key_of(const Job& job);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::map<Key, Job>> buckets_;  ///< index = cached level
  std::size_t size_ = 0;      ///< total waiting jobs
  std::size_t inflight_ = 0;  ///< popped, not yet retired/re-entered
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace stepping::serve
