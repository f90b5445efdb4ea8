// Anytime-inference serving subsystem (ISSUE 2).
//
// The paper motivates SteppingNet with platforms where "a preliminary
// decision should be made early and refined further with more computational
// resources". serve::Server turns that into a multi-request serving layer:
//
//  * submit() admits {input, deadline, MAC budget} jobs into a level-indexed
//    run queue (serve/queue.h): bucket L holds requests whose ladder state is
//    cached through subnet L, bucket 0 the fresh admissions;
//  * a pool of workers (one Network replica each, sized like the kernel
//    thread pool via the STEPPING_SERVE_WORKERS env var) pops up to
//    ServeConfig::max_batch requests of ONE level and steps them together to
//    the next subnet in one batched pass (all rows share the subnet, so the
//    pass rides the parallel GEMM path). Level-1 passes publish each
//    request's preliminary result; each later pass reuses all prior work (the
//    paper's exact-reuse property), so refinement costs only the incremental
//    MACs;
//  * after every pass, halting rows are published and survivors re-enter
//    the run queue carrying their cached activations, so survivors of
//    different batches re-merge into full same-level passes and freed slots
//    refill with fresh admissions;
//  * a request stops refining when it reaches its planned target level, its
//    confidence gate fires, its MAC budget would be exceeded, or the next
//    step no longer fits its remaining deadline (serve/planner.h decides,
//    deterministically, from the DeviceModel latency table).
//
// Results are bitwise-identical to a direct Network::forward of the exit
// subnet on the same input (property-tested in tests/serve_test.cc): rows of
// a batched pass are computed independently and ladder-step reuse is exact,
// so batching, re-merging and stepping change *when* work happens, never the
// answer. A throw inside a pass (a callback, an allocation) fails that pass's
// requests and leaves the server serving. Every served pass is fp32: the
// int8 layer route (src/quant/) runs in `steppingnet eval --precision int8`
// and the benches, not here, because its passes are slower than the fp32
// steps they would precede.
//
// Thread-safety: Server is internally synchronized; submit()/counters()/
// metrics_json() may be called from any thread. Each worker owns its Network
// clone exclusively; ladder state migrates between workers inside the jobs.
//
// Telemetry (ISSUE 3): every server owns an obs::Registry of lock-free
// counters, gauges and latency histograms (queue wait, first/final result,
// per-level step time, batch time, exit-level distribution, deadline misses,
// reuse-MACs-saved). Counter updates are ordered so that at ANY concurrent
// snapshot misses <= completed and sum(exits) <= completed, with exact
// equality once the server is quiescent. The legacy CounterSnapshot view is
// assembled from the same registry handles. The serve path is additionally
// instrumented with trace spans (serve.queue_wait / serve.form /
// serve.step.L / serve.publish) and a serve.queue_depth counter track.
//
// Flight recorder (ISSUE 8): every request additionally gets a slot in an
// always-on lock-free ring (obs/flight.h) holding its full causal timeline
// — enqueue, admit, batch-join, per-level step start/end with the planner's
// predicted cost next to the measured one, preliminary publish, halt (with
// the attributed reason), final publish. Deadline misses and worst-N
// stragglers are retained for postmortems (postmortems_json(), the
// kTimeline TCP opcode, `steppingnet serve --postmortem-dump`). A windowed
// SLO tracker (obs/slo.h) and per-level plan-error histograms ride the same
// hooks. All of it is observation-only: served results are bitwise
// identical with the recorder on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/latency.h"
#include "nn/network.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "quant/policy.h"
#include "serve/planner.h"
#include "serve/queue.h"
#include "serve/result.h"
#include "stream/stream.h"
#include "util/timer.h"

namespace stepping::serve {

/// Predictive admission control (ISSUE 9): what to do at enqueue when the
/// planner — from the queue depth the request would join — predicts the
/// deadline outcome. kOff is a pinned no-op (pre-ISSUE-9 behavior).
enum class AdmitPolicy : int {
  kEnv = -1,     ///< resolve from STEPPING_ADMIT (default kOff)
  kOff = 0,      ///< admit everything (legacy)
  kReject = 1,   ///< refuse hopeless requests (even level 1 predicted late)
  kDegrade = 2,  ///< reject hopeless; cap the rest to the reachable target
};

const char* admit_policy_name(AdmitPolicy p);
/// Parses "off" / "reject" / "degrade" (case-sensitive). Returns false and
/// leaves *out untouched on anything else.
bool parse_admit_policy(const std::string& s, AdmitPolicy* out);

struct ServeConfig {
  /// Worker threads, each with its own model replica. <= 0 resolves from the
  /// STEPPING_SERVE_WORKERS env var, defaulting to 1 (kernels inside a
  /// worker already parallelize across the global thread pool; extra
  /// workers trade per-request kernel parallelism for request throughput).
  int num_workers = 0;
  /// Largest micro-batch a worker pops at once. Same-subnet rows share one
  /// batched forward per step.
  int max_batch = 4;
  /// Highest executable subnet (the construction's num_subnets — required;
  /// it cannot be inferred from assignments, cf. AdaptiveConfig).
  int max_subnet = 0;
  /// Stop refining a request once its top-1 softmax probability reaches
  /// this value; 0 disables the gate.
  double confidence_threshold = 0.0;
  /// Budget applied when Request::mac_budget == 0; 0 = unlimited.
  std::int64_t default_mac_budget = 0;
  /// Deadline applied when Request::deadline_ms <= 0; <= 0 = none.
  double default_deadline_ms = 0.0;
  /// Admission bound; submit() beyond this fails the returned future.
  std::size_t queue_capacity = 1024;
  /// false: disable incremental reuse — every refinement level re-runs the
  /// full subnet from scratch. This is the no-reuse baseline every
  /// early-exit/slimmable-style system pays (bench_serve measures the gap).
  bool reuse = true;
  /// Latency model used for planning (calibrate_device() for the real
  /// host, or a preset/synthetic model in tests).
  DeviceModel device;
  /// Has no effect: every setting serves the fp32 ladder.
  quant::Precision precision = quant::Precision::kFp32;
  /// Flight-recorder knobs (ISSUE 8). Defaults resolve from the
  /// STEPPING_FLIGHT_RING / _RETAIN / _STRAGGLERS env vars; set ring = 0 to
  /// disable recording entirely.
  obs::FlightRecorder::Config flight;
  /// SLO tracker (ISSUE 8): deadline-hit-rate objective and the sliding
  /// window it is evaluated over.
  double slo_objective = 0.99;
  double slo_window_sec = 60.0;
  /// Has no effect: batch re-formation is the only serve loop.
  int reform = -1;
  /// Predictive admission control (ISSUE 9); kEnv resolves from the
  /// STEPPING_ADMIT env var ("off" / "reject" / "degrade", default off).
  AdmitPolicy admit = AdmitPolicy::kEnv;
  /// Streaming inference. 1: requests with Request::stream_id != 0 run
  /// the per-stream delta path (advance() in core/incremental.h) — frame
  /// diffed against the stream's cached previous frame, only dirty tiles +
  /// conv halos recomputed, the cached ladder stepped up or masked down to
  /// the planned level, bitwise identical to a full pass. 0: stream ids are
  /// ignored. < 0 resolves from STEPPING_STREAM ("exact" enables; default
  /// off). The tile edge is StreamConfig's default (8 pixels); stream-cache
  /// capacity comes from STEPPING_STREAM_STREAMS.
  int stream = -1;
};

/// Legacy aggregate view, assembled from the server's metrics registry.
/// Each field is a relaxed atomic read; cross-field invariants (misses <=
/// completed, sum(exits) <= completed) hold at any snapshot by update
/// ordering, with equality once the server is idle.
struct CounterSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< admitted, then failed by a throw in a pass
  std::uint64_t deadline_misses = 0;
  std::uint64_t batches = 0;        ///< admission micro-batches formed
  std::uint64_t batched_inputs = 0; ///< sum of admission micro-batch sizes
  /// Batched ladder passes actually executed and the rows they carried.
  /// Every pass is stacked from live rows only, so pass_rows / passes —
  /// pass_occupancy() — is the GEMM utilization re-formation keeps high.
  std::uint64_t passes = 0;
  std::uint64_t pass_rows = 0;
  /// Admission-control verdicts (all zero while STEPPING_ADMIT=off).
  std::uint64_t admit_accepted = 0;
  std::uint64_t admit_degraded = 0;
  std::uint64_t admit_rejected = 0;
  std::uint64_t queue_depth = 0;      ///< at snapshot time
  std::uint64_t peak_queue_depth = 0; ///< high-water mark at admission
  std::vector<std::uint64_t> step_passes_per_subnet; ///< batched passes at L
  std::vector<std::uint64_t> exits_per_subnet;       ///< requests exiting at L
  std::int64_t total_macs = 0; ///< per-image MACs attributed to requests

  /// Mean micro-batch size; 0 when nothing ran.
  double batch_occupancy() const;
  /// Mean live rows per executed ladder pass; 0 when nothing ran.
  double pass_occupancy() const;
  /// Mean exit level over completed requests; 0 when none.
  double mean_exit_subnet() const;
  /// Multi-line human-readable dump (CLI prints this on shutdown).
  std::string to_string() const;
};

class Server {
 public:
  /// Replicates `model` (wired, typically loaded via core/serialize.h) once
  /// per worker and starts the workers. The model itself is not retained.
  Server(const Network& model, ServeConfig cfg);
  ~Server();  ///< shutdown(): drains the queue, then joins the workers

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit a request. The future resolves with the final ServedResult, or
  /// with std::runtime_error when the queue is full / the server stopped.
  std::future<ServedResult> submit(Request req);

  /// Synchronous convenience wrapper: submit + wait.
  ServedResult serve(Request req);

  CounterSnapshot counters() const;

  /// The server's metrics registry (counters/gauges/histograms). Handles
  /// obtained from it stay valid for the server's lifetime.
  obs::Registry& metrics() const { return registry_; }

  /// JSON snapshot of every metric (the kStats TCP frame's payload).
  /// Refreshes the queue-depth gauge first.
  std::string metrics_json() const;

  /// Like metrics_json(), but histogram stats cover only the observations
  /// since the previous call with the same Window — current-load p50/p95/
  /// p99 for periodic dumpers rather than lifetime aggregates.
  std::string metrics_json_windowed(obs::Registry::Window& w) const;

  /// Prometheus text exposition of the same registry.
  std::string metrics_prometheus() const;

  const Planner& planner() const { return *planner_; }
  const ServeConfig& config() const { return cfg_; }

  /// The per-request flight recorder (ISSUE 8). Always on unless configured
  /// off; observation-only — served results are bitwise identical either way.
  const obs::FlightRecorder& flight() const { return flight_; }

  /// The windowed deadline-SLO tracker.
  const obs::SloTracker& slo() const { return slo_; }

  /// Flight-recorder postmortem dump: retained deadline misses and worst
  /// stragglers with full causal timelines and predicted-vs-actual per-level
  /// costs. The kTimeline TCP frame carries exactly these bytes.
  std::string postmortems_json() const { return flight_.postmortems_json(); }

  /// One-line SLO summary over the current window (CLI shutdown line).
  std::string slo_summary() const { return slo_.summary(now_ms()); }

  /// One-line flight-recorder health summary, e.g.
  ///   flight: ring=1024 records=96 drops=0 event_drops=0 retained=3+8
  std::string flight_summary() const;

  /// Milliseconds since the server started (the clock jobs are stamped
  /// with); exposed so callers can convert ServedResult times.
  double now_ms() const { return clock_.milliseconds(); }

  /// Stop admitting, drain queued requests, join workers. Idempotent.
  void shutdown();

  /// STEPPING_SERVE_WORKERS env var if set (> 0), else 1; at most
  /// kMaxThreads (util/thread_pool.h).
  static int default_workers();

 private:
  /// Worker loop: pop one same-level batch from the run queue, step it once,
  /// publish the halting rows and push the survivors back for re-merging.
  void worker_main(std::size_t worker_id);
  void process_level_batch(Network& net, std::vector<Job>& jobs,
                           std::size_t worker_id);
  /// Streaming path: serve `frames` (distinct streams in stream-id order,
  /// the order their states are locked in; one planned level) as one
  /// stream_delta_batch call. Every on_step runs before any frame is
  /// published. The pass counts once in serve_passes_total,
  /// serve_batches_total and the level's step passes, its frames as its
  /// rows, and its frames' flight records share one batch id.
  void process_stream_pass(Network& net, const std::vector<Job*>& frames,
                           std::size_t worker_id);
  /// Split a popped batch: stream jobs (when enabled) are planned, grouped
  /// into passes of distinct streams at one planned level (a stream's later
  /// frame rides a later pass), served by process_stream_pass and removed
  /// from `jobs`; the rest stay for the batched ladder. Returns the number
  /// of stream jobs served.
  std::size_t peel_stream_jobs(Network& net, std::vector<Job>& jobs,
                               std::size_t worker_id);
  /// Resolve `job`'s future with its answer at `level`: the latency
  /// histograms, SLO sample and flight record close first. The caller has
  /// bumped the counters.
  void publish(Job& job, Tensor logits, int level, obs::HaltReason halt,
               bool missed, double final_ms, double publish_ms);
  /// Resolve `job`'s future with `err`: a throw inside its pass (kFailed).
  void fail_job(Job& job, const std::exception_ptr& err);
  /// Ladder execution mode for planner predictions under this config.
  Planner::LadderMode ladder_mode() const;
  /// Refresh the exposition-time gauges (queue depth, SLO window, flight
  /// counters) before a registry snapshot.
  void refresh_gauges() const;

  ServeConfig cfg_;
  std::unique_ptr<Planner> planner_;
  std::vector<Network> replicas_;  ///< one per worker
  LevelRunQueue runq_;
  /// Slack threshold of the run-queue's urgency override: about two level-1
  /// pass times — below that, waiting for a fuller batch risks the deadline.
  double urgent_slack_ms_ = 0.0;
  /// Per-image MACs of one reuse step L -> L+1, index L in
  /// [0, max_subnet): precomputed so passes skip the per-pass layer walk.
  /// Matches IncrementalExecutor::last_step_macs() exactly.
  std::vector<std::int64_t> step_macs_;
  Timer clock_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> next_batch_id_{0};
  std::atomic<bool> stopped_{false};

  /// Streaming inference state (ISSUE 10); cache non-null iff cfg_.stream.
  /// The signature is computed once from the first replica — clone() copies
  /// Param::version verbatim, so every replica agrees and stream state
  /// migrates freely across workers (serve never trains).
  stream::StreamConfig stream_cfg_;
  std::unique_ptr<stream::StreamStateCache> stream_cache_;
  std::vector<std::uint64_t> stream_sig_;

  obs::FlightRecorder flight_;
  obs::SloTracker slo_;
  int isa_tier_int_ = 0;  ///< cached tensor ISA tier, stamped into records

  mutable obs::Registry registry_;
  /// Handles into registry_, resolved once in the constructor so the hot
  /// path never touches the registry map.
  struct Metrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_misses = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batched_inputs = nullptr;
    obs::Counter* total_macs = nullptr;
    obs::Counter* reuse_macs_saved = nullptr;
    obs::Counter* passes = nullptr;       ///< executed ladder passes
    obs::Counter* pass_rows = nullptr;    ///< live rows across those passes
    obs::Counter* admit_accepted = nullptr;
    obs::Counter* admit_degraded = nullptr;
    obs::Counter* admit_rejected = nullptr;
    /// Streaming path: frames served, stream-cache hit/miss, dirty tiles
    /// diffed, MACs the delta path saved vs full recompute, and cold
    /// rebuilds (first frame / invalidation / the frame after a fault).
    obs::Counter* stream_frames = nullptr;
    obs::Counter* stream_hits = nullptr;
    obs::Counter* stream_misses = nullptr;
    obs::Counter* stream_dirty_tiles = nullptr;
    obs::Counter* stream_macs_saved = nullptr;
    obs::Counter* stream_cold = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* peak_queue_depth = nullptr;
    /// SLO window gauges, refreshed at exposition time: hit rate in parts
    /// per million and error-budget burn in thousandths (gauges are
    /// integral; 1000 = burning exactly at budget).
    obs::Gauge* slo_hit_rate_ppm = nullptr;
    obs::Gauge* slo_budget_burn_milli = nullptr;
    /// Flight-recorder health, mirrored from the recorder's own atomics at
    /// exposition time.
    obs::Gauge* flight_records = nullptr;
    obs::Gauge* flight_ring_drops = nullptr;
    obs::Gauge* flight_event_drops = nullptr;
    std::vector<obs::Counter*> step_passes;  ///< per subnet level
    std::vector<obs::Counter*> exits;        ///< per subnet level
    obs::Histogram* queue_ms = nullptr;
    obs::Histogram* first_result_ms = nullptr;
    obs::Histogram* final_ms = nullptr;
    obs::Histogram* batch_ms = nullptr;
    std::vector<obs::Histogram*> level_ms;   ///< per subnet level
    /// Planner prediction error per level: measured pass wall-clock divided
    /// by the planner's prediction (1.0 = perfect; > 1 under-predicted).
    std::vector<obs::Histogram*> plan_error;
  } m_;
};

}  // namespace stepping::serve
