#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/incremental.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "tensor/gemm_isa.h"
#include "tensor/ops.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace stepping::serve {

namespace {

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Confidence as an integer for flight-event args (parts per million).
std::int64_t conf_ppm(double top1) {
  return static_cast<std::int64_t>(top1 * 1e6);
}

/// Static span names for the per-level ladder steps (span names must
/// outlive the trace flush, so no on-the-fly strings).
const char* step_span_name(int level) {
  static const char* const kNames[] = {
      "serve.step.1", "serve.step.2", "serve.step.3", "serve.step.4",
      "serve.step.5", "serve.step.6", "serve.step.7", "serve.step.8",
  };
  constexpr int kMax = static_cast<int>(sizeof(kNames) / sizeof(kNames[0]));
  return (level >= 1 && level <= kMax) ? kNames[level - 1] : "serve.step";
}

}  // namespace

const char* admit_policy_name(AdmitPolicy p) {
  switch (p) {
    case AdmitPolicy::kOff:
      return "off";
    case AdmitPolicy::kReject:
      return "reject";
    case AdmitPolicy::kDegrade:
      return "degrade";
    case AdmitPolicy::kEnv:
      break;
  }
  return "env";
}

bool parse_admit_policy(const std::string& s, AdmitPolicy* out) {
  if (s == "off") {
    *out = AdmitPolicy::kOff;
  } else if (s == "reject") {
    *out = AdmitPolicy::kReject;
  } else if (s == "degrade") {
    *out = AdmitPolicy::kDegrade;
  } else {
    return false;
  }
  return true;
}

double CounterSnapshot::batch_occupancy() const {
  return batches != 0 ? static_cast<double>(batched_inputs) /
                            static_cast<double>(batches)
                      : 0.0;
}

double CounterSnapshot::pass_occupancy() const {
  return passes != 0
             ? static_cast<double>(pass_rows) / static_cast<double>(passes)
             : 0.0;
}

double CounterSnapshot::mean_exit_subnet() const {
  std::uint64_t total = 0, weighted = 0;
  for (std::size_t i = 0; i < exits_per_subnet.size(); ++i) {
    total += exits_per_subnet[i];
    weighted += exits_per_subnet[i] * (i + 1);
  }
  return total != 0 ? static_cast<double>(weighted) / static_cast<double>(total)
                    : 0.0;
}

std::string CounterSnapshot::to_string() const {
  std::ostringstream os;
  char buf[64];
  os << "serve counters:\n"
     << "  submitted=" << submitted << " completed=" << completed
     << " rejected=" << rejected << " failed=" << failed
     << " deadline_misses=" << deadline_misses
     << "\n"
     << "  queue_depth=" << queue_depth
     << " peak_queue_depth=" << peak_queue_depth << "\n";
  std::snprintf(buf, sizeof(buf), "%.2f", batch_occupancy());
  os << "  batches=" << batches << " batched_inputs=" << batched_inputs
     << " occupancy=" << buf << "\n";
  std::snprintf(buf, sizeof(buf), "%.2f", pass_occupancy());
  os << "  passes=" << passes << " pass_rows=" << pass_rows
     << " pass_occupancy=" << buf << "\n"
     << "  admit_accepted=" << admit_accepted
     << " admit_degraded=" << admit_degraded
     << " admit_rejected=" << admit_rejected << "\n";
  os << "  step_passes_per_subnet=";
  for (std::size_t i = 0; i < step_passes_per_subnet.size(); ++i) {
    os << (i ? "," : "") << step_passes_per_subnet[i];
  }
  os << "\n  exits_per_subnet=";
  for (std::size_t i = 0; i < exits_per_subnet.size(); ++i) {
    os << (i ? "," : "") << exits_per_subnet[i];
  }
  std::snprintf(buf, sizeof(buf), "%.2f", mean_exit_subnet());
  os << "\n  mean_exit_subnet=" << buf << " total_macs=" << total_macs << "\n";
  return os.str();
}

int Server::default_workers() {
  return env_thread_count("STEPPING_SERVE_WORKERS", 1);
}

Server::Server(const Network& model, ServeConfig cfg)
    : cfg_(std::move(cfg)),
      runq_(cfg_.queue_capacity, cfg_.max_subnet),
      flight_(cfg_.flight),
      slo_(obs::SloTracker::Config{cfg_.slo_window_sec, 60,
                                   cfg_.slo_objective}) {
  if (!model.wired()) {
    throw std::invalid_argument("serve::Server: model must be wired");
  }
  if (cfg_.max_subnet < 1) {
    throw std::invalid_argument("serve::Server: max_subnet required (>= 1)");
  }
  cfg_.max_batch = std::max(1, cfg_.max_batch);
  if (cfg_.num_workers <= 0) cfg_.num_workers = default_workers();
  if (cfg_.admit == AdmitPolicy::kEnv) {
    AdmitPolicy p = AdmitPolicy::kOff;
    parse_admit_policy(env_or("STEPPING_ADMIT", "off"), &p);
    cfg_.admit = p;
  }
  // Streaming inference (ISSUE 10): resolve the env surface once, like
  // admit above.
  stream_cfg_ = stream::stream_config_from_env();
  if (cfg_.stream >= 0) stream_cfg_.enabled = cfg_.stream != 0;
  cfg_.stream = stream_cfg_.enabled ? 1 : 0;

  replicas_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int w = 0; w < cfg_.num_workers; ++w) replicas_.push_back(model.clone());
  planner_ = std::make_unique<Planner>(
      measure_level_costs(replicas_.front(), cfg_.max_subnet), cfg_.device);

  // Scheduling constants: the per-step MAC table passes attribute from
  // (identical to the executor's analytic count), and the run-queue's
  // urgency threshold — about two level-1 pass times of slack; below that a
  // request is served before fuller batches.
  step_macs_.reserve(static_cast<std::size_t>(cfg_.max_subnet));
  for (int l = 1; l <= cfg_.max_subnet; ++l) {
    step_macs_.push_back(ladder_step_macs(replicas_.front(), l - 1, l));
  }
  urgent_slack_ms_ =
      2.0 * planner_->predicted_level_ms(1, cfg_.max_batch, ladder_mode());

  if (stream_cfg_.enabled) {
    stream_cache_ =
        std::make_unique<stream::StreamStateCache>(stream_cfg_.capacity);
    stream_sig_ = stream::network_signature(replicas_.front());
  }

  // Resolve every metric handle up front; workers only touch atomics.
  m_.submitted = &registry_.counter("serve_submitted_total");
  m_.rejected = &registry_.counter("serve_rejected_total");
  m_.completed = &registry_.counter("serve_completed_total");
  m_.failed = &registry_.counter("serve_failed_total");
  m_.deadline_misses = &registry_.counter("serve_deadline_misses_total");
  m_.batches = &registry_.counter("serve_batches_total");
  m_.batched_inputs = &registry_.counter("serve_batched_inputs_total");
  m_.total_macs = &registry_.counter("serve_macs_total");
  m_.reuse_macs_saved = &registry_.counter("serve_reuse_macs_saved_total");
  m_.passes = &registry_.counter("serve_passes_total");
  m_.pass_rows = &registry_.counter("serve_pass_rows_total");
  m_.admit_accepted = &registry_.counter("serve_admit_accepted_total");
  m_.admit_degraded = &registry_.counter("serve_admit_degraded_total");
  m_.admit_rejected = &registry_.counter("serve_admit_rejected_total");
  m_.stream_frames = &registry_.counter("serve_stream_frames_total");
  m_.stream_hits = &registry_.counter("serve_stream_cache_hits_total");
  m_.stream_misses = &registry_.counter("serve_stream_cache_misses_total");
  m_.stream_dirty_tiles = &registry_.counter("serve_stream_dirty_tiles_total");
  m_.stream_macs_saved = &registry_.counter("serve_stream_macs_saved_total");
  m_.stream_cold = &registry_.counter("serve_stream_cold_total");
  m_.queue_depth = &registry_.gauge("serve_queue_depth");
  m_.peak_queue_depth = &registry_.gauge("serve_peak_queue_depth");
  m_.slo_hit_rate_ppm = &registry_.gauge("serve_slo_hit_rate_ppm");
  m_.slo_budget_burn_milli = &registry_.gauge("serve_slo_budget_burn_milli");
  m_.flight_records = &registry_.gauge("serve_flight_records");
  m_.flight_ring_drops = &registry_.gauge("serve_flight_ring_drops");
  m_.flight_event_drops = &registry_.gauge("serve_flight_event_drops");
  m_.queue_ms = &registry_.histogram("serve_queue_ms");
  m_.first_result_ms = &registry_.histogram("serve_first_result_ms");
  m_.final_ms = &registry_.histogram("serve_final_ms");
  m_.batch_ms = &registry_.histogram("serve_batch_ms");
  for (int l = 1; l <= cfg_.max_subnet; ++l) {
    m_.step_passes.push_back(&registry_.counter(
        "serve_step_passes_subnet_" + std::to_string(l) + "_total"));
    m_.exits.push_back(&registry_.counter("serve_exits_subnet_" +
                                          std::to_string(l) + "_total"));
    m_.level_ms.push_back(
        &registry_.histogram("serve_level_ms_subnet_" + std::to_string(l)));
    m_.plan_error.push_back(&registry_.histogram(
        "serve_plan_error_ratio_subnet_" + std::to_string(l)));
  }

  // Build / deployment identity (ISSUE 8): the stepping_build_info labeled
  // gauge lets dashboards slice every other metric by version, git sha and
  // ISA tier.
  isa_tier_int_ = static_cast<int>(isa_tier());
  obs::register_build_info(registry_, isa_tier_name(isa_tier()));
  // An empty SLO window reads as a perfect hit rate.
  m_.slo_hit_rate_ppm->set(1000000);

  workers_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int w = 0; w < cfg_.num_workers; ++w) {
    workers_.emplace_back(
        [this, w] { worker_main(static_cast<std::size_t>(w)); });
  }
}

Server::~Server() { shutdown(); }

Planner::LadderMode Server::ladder_mode() const {
  return cfg_.reuse ? Planner::LadderMode::kReuse
                    : Planner::LadderMode::kFromScratch;
}

void Server::shutdown() {
  const bool already = stopped_.exchange(true);
  runq_.close();
  if (already) return;
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

std::future<ServedResult> Server::submit(Request req) {
  Job job;
  std::future<ServedResult> fut = job.promise.get_future();

  Tensor x = std::move(req.input);
  if (x.rank() == 3) x.reshape_inplace({1, x.dim(0), x.dim(1), x.dim(2)});
  const Network& ref = replicas_.front();
  if (x.rank() != 4 || x.dim(0) != 1 || x.dim(1) != ref.input_channels() ||
      x.dim(2) != ref.input_h() || x.dim(3) != ref.input_w()) {
    m_.rejected->inc();
    job.promise.set_exception(std::make_exception_ptr(std::invalid_argument(
        "serve: input must be (1, C, H, W) matching the model")));
    return fut;
  }

  job.input = std::move(x);
  job.seq = next_seq_.fetch_add(1);
  job.submit_ms = now_ms();
  const double deadline =
      req.deadline_ms > 0.0 ? req.deadline_ms : cfg_.default_deadline_ms;
  job.deadline_abs_ms = deadline > 0.0 ? job.submit_ms + deadline : 0.0;
  job.mac_budget =
      req.mac_budget > 0 ? req.mac_budget : cfg_.default_mac_budget;
  job.stream_id = req.stream_id;
  job.on_step = std::move(req.on_step);
  job.flight = flight_.begin(job.seq, job.submit_ms, job.deadline_abs_ms,
                             job.mac_budget);
  flight_.event(job.flight, obs::FlightEventKind::kEnqueue, job.submit_ms);

  m_.submitted->inc();

  // Predictive admission control (ISSUE 9): before the request joins the
  // queue, predict — from the depth it would join at — whether any subnet
  // can still answer inside its deadline. Hopeless requests are refused up
  // front instead of burning GEMM time on a guaranteed miss; under kDegrade
  // the rest are capped to the level the planner predicts reachable.
  if (cfg_.admit != AdmitPolicy::kOff) {
    const Planner::AdmitDecision d = planner_->admit_decision(
        deadline, runq_.depth(), cfg_.num_workers, cfg_.max_batch,
        ladder_mode());
    const bool degrade =
        cfg_.admit == AdmitPolicy::kDegrade && d.admit && d.degraded;
    flight_.event(job.flight, obs::FlightEventKind::kAdmitDecision,
                  job.submit_ms, !d.admit ? 2 : degrade ? 1 : 0, d.target,
                  static_cast<std::int64_t>(d.predicted_wait_ms * 1000.0));
    if (!d.admit) {
      m_.admit_rejected->inc();
      m_.rejected->inc();
      flight_.event(
          job.flight, obs::FlightEventKind::kHalt, job.submit_ms,
          static_cast<std::int64_t>(obs::HaltReason::kAdmitRejected), 0);
      // missed = true: an admission reject IS a (predicted) deadline miss,
      // so the postmortem buffer retains its timeline — but the server's
      // deadline_misses counter and the SLO window track only requests that
      // actually executed, and stay untouched.
      flight_.finish(job.flight, 0, obs::HaltReason::kAdmitRejected, true,
                     0.0, 0.0, 0.0);
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "serve: admission control rejected request: predicted "
                    "queue wait %.2f ms leaves no reachable subnet before "
                    "the %.2f ms deadline",
                    d.predicted_wait_ms, deadline);
      job.promise.set_exception(
          std::make_exception_ptr(std::runtime_error(msg)));
      return fut;
    }
    if (degrade) {
      job.admit_target = d.target;
      m_.admit_degraded->inc();
    } else {
      m_.admit_accepted->inc();
    }
  }

  const bool was_stopped = stopped_.load();
  const bool pushed = !was_stopped && runq_.push(std::move(job));
  if (!pushed) {
    // push() leaves the job untouched on failure, so the promise is intact.
    m_.rejected->inc();
    const obs::HaltReason why = was_stopped ? obs::HaltReason::kShutdown
                                            : obs::HaltReason::kRejected;
    flight_.event(job.flight, obs::FlightEventKind::kHalt, now_ms(),
                  static_cast<std::int64_t>(why), 0);
    flight_.finish(job.flight, 0, why, false, 0.0, 0.0, 0.0);
    job.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("serve: queue full or server stopped")));
    return fut;
  }
  const auto depth = static_cast<std::int64_t>(runq_.depth());
  m_.queue_depth->set(depth);
  m_.peak_queue_depth->max_of(depth);
  obs::trace_counter("serve.queue_depth", depth);
  return fut;
}

ServedResult Server::serve(Request req) { return submit(std::move(req)).get(); }

CounterSnapshot Server::counters() const {
  // Read order is the REVERSE of the writer's increment order (a pass bumps
  // completed first, then misses/exits/batch counters; submit bumps
  // submitted before any completion is possible). Reading the dependent
  // counters first keeps the snapshot invariants — misses <= completed,
  // sum(exits) <= completed, completed <= submitted — intact even when a
  // batch lands between two reads.
  CounterSnapshot snap;
  for (const obs::Counter* c : m_.exits) {
    snap.exits_per_subnet.push_back(c->value());
  }
  for (const obs::Counter* c : m_.step_passes) {
    snap.step_passes_per_subnet.push_back(c->value());
  }
  snap.deadline_misses = m_.deadline_misses->value();
  snap.batches = m_.batches->value();
  snap.batched_inputs = m_.batched_inputs->value();
  // pass_rows before passes (writer bumps passes first), so a concurrent
  // snapshot keeps pass_rows <= passes * max_batch.
  snap.pass_rows = m_.pass_rows->value();
  snap.passes = m_.passes->value();
  snap.admit_degraded = m_.admit_degraded->value();
  snap.admit_rejected = m_.admit_rejected->value();
  snap.admit_accepted = m_.admit_accepted->value();
  snap.completed = m_.completed->value();
  snap.failed = m_.failed->value();
  snap.submitted = m_.submitted->value();
  snap.rejected = m_.rejected->value();
  snap.queue_depth = runq_.depth();
  snap.peak_queue_depth =
      static_cast<std::uint64_t>(m_.peak_queue_depth->value());
  snap.total_macs = static_cast<std::int64_t>(m_.total_macs->value());
  return snap;
}

void Server::refresh_gauges() const {
  m_.queue_depth->set(static_cast<std::int64_t>(runq_.depth()));
  const obs::SloTracker::WindowStats s = slo_.window(clock_.milliseconds());
  m_.slo_hit_rate_ppm->set(static_cast<std::int64_t>(s.hit_rate * 1e6));
  m_.slo_budget_burn_milli->set(
      static_cast<std::int64_t>(s.budget_burn * 1e3));
  m_.flight_records->set(static_cast<std::int64_t>(flight_.records()));
  m_.flight_ring_drops->set(static_cast<std::int64_t>(flight_.ring_dropped()));
  m_.flight_event_drops->set(
      static_cast<std::int64_t>(flight_.events_dropped()));
}

std::string Server::metrics_json() const {
  refresh_gauges();
  return registry_.to_json();
}

std::string Server::metrics_json_windowed(obs::Registry::Window& w) const {
  refresh_gauges();
  return registry_.to_json_windowed(w);
}

std::string Server::metrics_prometheus() const {
  refresh_gauges();
  return registry_.to_prometheus();
}

std::string Server::flight_summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "flight: ring=%zu records=%llu drops=%llu event_drops=%llu "
                "retained=%zu+%zu",
                flight_.ring_size(),
                static_cast<unsigned long long>(flight_.records()),
                static_cast<unsigned long long>(flight_.ring_dropped()),
                static_cast<unsigned long long>(flight_.events_dropped()),
                flight_.retained_misses().size(),
                flight_.retained_stragglers().size());
  return buf;
}

std::size_t Server::peel_stream_jobs(Network& net, std::vector<Job>& jobs,
                                     std::size_t worker_id) {
  if (!stream_cfg_.enabled) return 0;
  std::vector<Job> frames;
  std::size_t keep = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].stream_id != 0) {
      frames.push_back(std::move(jobs[j]));
    } else {
      if (keep != j) jobs[keep] = std::move(jobs[j]);
      ++keep;
    }
  }
  jobs.resize(keep);

  // Plan each frame's level like a batch-of-one admission (the degrade cap
  // still applies), then form passes of one planned level and distinct
  // streams: a frame joins the first such pass after every pass holding an
  // earlier frame of its stream, so a stream's frames still run in order.
  const double plan_ms = now_ms();
  std::vector<std::vector<Job*>> passes;
  for (Job& job : frames) {
    const double remaining = job.deadline_abs_ms > 0.0
                                 ? job.deadline_abs_ms - plan_ms
                                 : kNoDeadline;
    int target = planner_->target_level(remaining, 1);
    if (job.admit_target > 0) target = std::min(target, job.admit_target);
    job.target = std::max(1, target);
    std::size_t p = 0;
    for (std::size_t q = 0; q < passes.size(); ++q) {
      for (const Job* f : passes[q]) p = f->stream_id == job.stream_id ? q + 1 : p;
    }
    while (p < passes.size() && passes[p].front()->target != job.target) ++p;
    if (p == passes.size()) passes.emplace_back();
    passes[p].push_back(&job);
  }
  for (std::vector<Job*>& pass : passes) {
    // Stream-id order is the order a pass takes its streams' locks in.
    std::sort(pass.begin(), pass.end(), [](const Job* a, const Job* b) {
      return a->stream_id < b->stream_id;
    });
    try {
      process_stream_pass(net, pass, worker_id);
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      for (Job* job : pass) fail_job(*job, err);
    }
  }
  return frames.size();
}

void Server::process_stream_pass(Network& net, const std::vector<Job*>& frames,
                                 std::size_t worker_id) {
  obs::TraceScope pass_span("serve.stream_frame", "serve");
  const std::size_t b = frames.size();
  const int target = frames.front()->target;
  const double start_ms = now_ms();
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1);
  std::vector<std::shared_ptr<stream::StreamState>> states;
  std::vector<LadderRow> rows;
  std::uint64_t hits = 0;
  for (Job* job : frames) {
    flight_.event(job->flight, obs::FlightEventKind::kAdmit, start_ms,
                  static_cast<std::int64_t>(worker_id));
    if (b > 1) {
      flight_.event(job->flight, obs::FlightEventKind::kBatchJoin, start_ms,
                    static_cast<std::int64_t>(batch_id),
                    static_cast<std::int64_t>(b));
    }
    flight_.set_batch(job->flight, batch_id, static_cast<int>(b), target,
                      isa_tier_int_);
    bool hit = false;
    states.push_back(stream_cache_->acquire(job->stream_id, &hit));
    hits += hit ? 1 : 0;
    rows.push_back({states.back().get(), &job->input});
  }
  std::vector<stream::StreamResult> results;
  {
    // Frames of ONE stream serialize on its state's lock; other streams and
    // the ladder proceed concurrently. A pass takes its locks in stream-id
    // order, so two workers never wait on each other. Replicas are bitwise
    // identical (clone()), so any worker can reuse a stream's state.
    std::vector<std::unique_lock<std::mutex>> locks;
    for (const auto& st : states) locks.emplace_back(st->mu);
    const double step_ms = now_ms();
    for (Job* job : frames) {
      flight_.event(job->flight, obs::FlightEventKind::kStepStart, step_ms,
                    target, isa_tier_int_);
    }
    // A throw resets every state in the pass: each stream's next frame
    // rebuilds cold.
    results = stream::stream_delta_batch(net, rows, target, stream_cfg_,
                                         stream_sig_);
  }
  const double now = now_ms();

  // Every frame's on_step runs before any frame is published; a throw in
  // one fails the whole pass, as in process_level_batch.
  const obs::HaltReason why = target >= cfg_.max_subnet
                                  ? obs::HaltReason::kMaxLevel
                                  : obs::HaltReason::kTarget;
  std::int64_t macs = 0, saved = 0, dirty = 0, cold = 0;
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < b; ++i) {
    Job& job = *frames[i];
    const stream::StreamResult& r = results[i];
    Tensor probs;
    softmax_rows(r.logits, probs);
    job.confidence = 0.0;
    for (int k = 0; k < r.logits.dim(1); ++k) {
      job.confidence = std::max(job.confidence, static_cast<double>(probs.at(0, k)));
    }
    const std::int64_t frame_saved = std::max<std::int64_t>(0, r.full_macs - r.macs);
    job.macs = r.macs;
    job.queue_ms = start_ms - job.submit_ms;
    job.first_ms = now - job.submit_ms;
    macs += r.macs;
    saved += frame_saved;
    dirty += r.dirty_tiles;
    cold += r.cold ? 1 : 0;
    misses += job.deadline_abs_ms > 0.0 && now > job.deadline_abs_ms ? 1 : 0;
    const double dirty_share =
        r.cold ? 1.0 : static_cast<double>(r.dirty_tiles) / r.total_tiles;
    flight_.event(job.flight, obs::FlightEventKind::kStepEnd, now, target,
                  r.macs, conf_ppm(job.confidence));
    flight_.set_level(job.flight, target,
                      planner_->stream_delta_ms(target, dirty_share),
                      now - start_ms, r.macs);
    flight_.event(job.flight, obs::FlightEventKind::kStreamFrame, now,
                  static_cast<std::int64_t>(job.stream_id), r.dirty_tiles,
                  target);
    flight_.event(job.flight, obs::FlightEventKind::kDeltaReuse, now,
                  frame_saved, r.macs, r.cold ? 0 : 1);
    flight_.event(job.flight, obs::FlightEventKind::kHalt, now,
                  static_cast<std::int64_t>(why), target);

    job.steps.push_back({.subnet = target, .at_ms = job.first_ms,
                         .macs = r.macs, .confidence = job.confidence,
                         .final = true});
    if (job.on_step) job.on_step(job.steps.back());
  }
  pass_span.arg("frames", static_cast<std::int64_t>(b));
  pass_span.arg("level", target);
  pass_span.arg("dirty_tiles", dirty);
  pass_span.arg("macs", macs);

  // Counters BEFORE the promises, completed first — the same snapshot
  // contract as the batched ladder pass. The pass counts once, and its
  // frames as its rows.
  m_.completed->inc(b);
  m_.deadline_misses->inc(misses);
  m_.exits[static_cast<std::size_t>(target - 1)]->inc(b);
  m_.batches->inc();
  m_.batched_inputs->inc(b);
  m_.total_macs->inc(static_cast<std::uint64_t>(macs));
  m_.stream_frames->inc(b);
  m_.stream_hits->inc(hits);
  m_.stream_misses->inc(b - hits);
  m_.stream_dirty_tiles->inc(static_cast<std::uint64_t>(dirty));
  m_.stream_macs_saved->inc(static_cast<std::uint64_t>(saved));
  m_.stream_cold->inc(static_cast<std::uint64_t>(cold));
  m_.step_passes[static_cast<std::size_t>(target - 1)]->inc();
  m_.passes->inc();
  m_.pass_rows->inc(b);
  m_.level_ms[static_cast<std::size_t>(target - 1)]->observe(now - start_ms);

  for (std::size_t i = 0; i < b; ++i) {
    Job& job = *frames[i];
    publish(job, std::move(results[i].logits), target, why,
            job.deadline_abs_ms > 0.0 && now > job.deadline_abs_ms,
            job.first_ms, now_ms());
  }
}

void Server::fail_job(Job& job, const std::exception_ptr& err) {
  const double now = now_ms();
  m_.failed->inc();
  flight_.event(job.flight, obs::FlightEventKind::kHalt, now,
                static_cast<std::int64_t>(obs::HaltReason::kFailed), job.level);
  flight_.finish(job.flight, 0, obs::HaltReason::kFailed, false, job.queue_ms,
                 job.first_ms, now - job.submit_ms);
  job.promise.set_exception(err);
}

void Server::worker_main(std::size_t worker_id) {
  obs::trace_thread_name("serve.worker." + std::to_string(worker_id));
  Network& net = replicas_[worker_id];
  std::vector<Job> batch;
  for (;;) {
    bool got;
    {
      STEPPING_TRACE_SCOPE_CAT("serve", "serve.queue_wait");
      got = runq_.pop_batch(cfg_.max_batch, now_ms(), urgent_slack_ms_, batch);
    }
    if (!got) break;
    obs::trace_counter("serve.queue_depth",
                       static_cast<std::int64_t>(runq_.depth()));
    // Stream frames ride the same queue but are served by the delta path,
    // the frames of distinct streams together; the run-queue's in-flight
    // accounting still expects them back.
    const std::size_t streamed = peel_stream_jobs(net, batch, worker_id);
    if (streamed != 0) runq_.retire(streamed);
    if (!batch.empty()) process_level_batch(net, batch, worker_id);
  }
}

/// One ladder pass: every job in `jobs` has cached level `from` (possibly
/// from different earlier passes, possibly fresh) and steps together to
/// `from + 1`. Halting rows are published and retired; survivors re-enter
/// the run-queue carrying the new shared activation state, where the next
/// pop may merge them with survivors of other batches. Per-row results are
/// bitwise identical to a direct forward of the exit subnet: batched kernels
/// compute each output row independently in serial order, so neither the
/// batch composition nor the step's host worker can change a row.
void Server::process_level_batch(Network& net, std::vector<Job>& jobs,
                                 std::size_t worker_id) {
  obs::TraceScope batch_span("serve.batch", "serve");
  const int b = static_cast<int>(jobs.size());
  const int from = jobs.front().level;  // pop_batch pops one bucket: all equal
  const int level = from + 1;           // the subnet this pass steps to
  const int c = net.input_channels(), h = net.input_h(), w = net.input_w();
  const double start_ms = now_ms();
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1);

  // Halting rows, the survivors (indices into `jobs`), and the activation
  // state the survivors carry on.
  struct Done {
    std::size_t j = 0;
    obs::HaltReason halt = obs::HaltReason::kNone;
    bool missed = false;
    double final_ms = 0.0;
    Tensor logits;
  };
  std::vector<Done> done;
  std::vector<std::size_t> survivors;
  std::shared_ptr<std::vector<Tensor>> acts;
  std::int64_t step_img = 0;

  // Exception boundary: until the survivors re-enter the run queue no job
  // has left `jobs` and no promise is resolved, so a throw anywhere in here
  // (a forward, an on_step callback) fails exactly this pass's jobs.
  try {
    // Stack the rows: every pass is re-formed from whatever same-level rows
    // were waiting.
    Tensor x({b, c, h, w});
    {
      STEPPING_TRACE_SCOPE_CAT("serve", "serve.form");
      const std::int64_t img = static_cast<std::int64_t>(c) * h * w;
      for (int j = 0; j < b; ++j) {
        std::memcpy(x.data() + static_cast<std::size_t>(j) * img,
                    jobs[j].input.data(),
                    sizeof(float) * static_cast<std::size_t>(img));
      }
    }

    // Fresh rows (level 0) get admitted and planned; survivors record the
    // rejoin — which re-formed batch picked them up, at what size, stepping
    // where — so postmortem timelines show every migration.
    for (int j = 0; j < b; ++j) {
      Job& job = jobs[j];
      if (from == 0) {
        job.queue_ms = start_ms - job.submit_ms;
        const double remaining = job.deadline_abs_ms > 0.0
                                     ? job.deadline_abs_ms - start_ms
                                     : kNoDeadline;
        int target = planner_->target_level(remaining, b);
        if (job.admit_target > 0) target = std::min(target, job.admit_target);
        job.target = std::max(1, target);
        flight_.event(job.flight, obs::FlightEventKind::kAdmit, start_ms,
                      static_cast<std::int64_t>(worker_id));
        flight_.event(job.flight, obs::FlightEventKind::kBatchJoin, start_ms,
                      static_cast<std::int64_t>(batch_id), b);
        flight_.set_batch(job.flight, batch_id, b, job.target, isa_tier_int_);
      } else {
        flight_.event(job.flight, obs::FlightEventKind::kBatchRejoin, start_ms,
                      static_cast<std::int64_t>(batch_id), b, level);
      }
    }

    // `batches` counts passes of fresh admissions; pass counters measure
    // what actually rode the GEMMs. batched_inputs is attributed at
    // COMPLETION below, so the snapshot invariant batched_inputs <= completed
    // holds mid-flight.
    if (from == 0) m_.batches->inc();
    m_.passes->inc();
    m_.pass_rows->inc(static_cast<std::uint64_t>(b));

    // The batched step itself. Reuse mode re-stacks the cached stage
    // outputs of the source batches into fresh batch tensors first — the
    // state migration that lets rows from different earlier batches (and
    // different workers) share this GEMM. The entries of layers inside a
    // fused stage are empty and stay so. A cohort whose rows are exactly
    // the rows of one earlier pass, in order, and that no other job still
    // shares, steps that pass's state in place instead.
    obs::TraceScope step_span(step_span_name(level), "serve");
    const double level_start = now_ms();
    Tensor y;
    if (cfg_.reuse) {
      const std::shared_ptr<std::vector<Tensor>>& prev = jobs.front().acts;
      bool in_place = from > 0 && prev.use_count() == b;
      for (int j = 0; in_place && j < b; ++j) {
        in_place = jobs[j].acts == prev && jobs[j].acts_row == j;
      }
      for (std::size_t i = 0; in_place && i < prev->size(); ++i) {
        in_place = (*prev)[i].empty() || (*prev)[i].dim(0) == b;
      }
      acts = in_place ? prev : std::make_shared<std::vector<Tensor>>();
      if (from > 0 && !in_place) {
        STEPPING_TRACE_SCOPE_CAT("serve", "serve.form");
        const std::size_t nlayers = jobs.front().acts->size();
        acts->resize(nlayers);
        for (std::size_t i = 0; i < nlayers; ++i) {
          const Tensor& src0 = (*jobs.front().acts)[i];
          if (src0.empty()) continue;
          std::vector<int> shape = src0.shape();
          const std::int64_t row = src0.numel() / src0.dim(0);
          shape[0] = b;
          Tensor dst(shape);
          for (int j = 0; j < b; ++j) {
            const Tensor& src = (*jobs[j].acts)[i];
            std::memcpy(
                dst.data() + static_cast<std::size_t>(j) * row,
                src.data() + static_cast<std::size_t>(jobs[j].acts_row) * row,
                sizeof(float) * static_cast<std::size_t>(row));
          }
          (*acts)[i] = std::move(dst);
        }
      }
      y = ladder_step(net, x, *acts, from, level);
      step_img = step_macs_[static_cast<std::size_t>(from)];
    } else {
      // The no-reuse baseline runs each level from scratch, so no activation
      // state migrates — only the job's scalar ladder state does.
      SubnetContext ctx;
      ctx.subnet_id = level;
      ctx.num_subnets = cfg_.max_subnet;
      y = net.forward(x, ctx);
      step_img = planner_->costs().full[static_cast<std::size_t>(level - 1)];
    }
    step_span.arg("batch", b);
    step_span.arg("level", level);
    step_span.arg("macs", step_img * b);
    const double now = now_ms();
    const double pass_ms = now - level_start;
    const double predicted_ms =
        planner_->predicted_level_ms(level, b, ladder_mode());
    if (predicted_ms > 0.0) {
      m_.plan_error[static_cast<std::size_t>(level - 1)]->observe(pass_ms /
                                                                  predicted_ms);
    }
    Tensor probs;
    softmax_rows(y, probs);
    m_.step_passes[static_cast<std::size_t>(level - 1)]->inc();
    m_.total_macs->inc(static_cast<std::uint64_t>(step_img * b));
    if (cfg_.reuse) {
      const std::int64_t full =
          planner_->costs().full[static_cast<std::size_t>(level - 1)];
      const std::int64_t saved = (full - step_img) * b;
      if (saved > 0) {
        m_.reuse_macs_saved->inc(static_cast<std::uint64_t>(saved));
      }
    }
    m_.level_ms[static_cast<std::size_t>(level - 1)]->observe(pass_ms);

    // Halt decisions, with the reason attributed for the flight record.
    const int classes = y.dim(1);
    for (int j = 0; j < b; ++j) {
      Job& job = jobs[j];
      job.macs += step_img;
      double top1 = 0.0;
      for (int k = 0; k < classes; ++k) {
        top1 = std::max(top1, static_cast<double>(probs.at(j, k)));
      }
      job.confidence = top1;
      flight_.event(job.flight, obs::FlightEventKind::kStepStart, level_start,
                    level, isa_tier_int_);
      flight_.event(job.flight, obs::FlightEventKind::kStepEnd, now, level,
                    step_img, conf_ppm(top1));
      flight_.set_level(job.flight, level, predicted_ms, pass_ms, step_img);
      if (level == 1) {
        job.first_ms = now - job.submit_ms;
        flight_.event(job.flight, obs::FlightEventKind::kPrelimPublish, now,
                      level, conf_ppm(top1));
      }

      const double remaining = job.deadline_abs_ms > 0.0
                                   ? job.deadline_abs_ms - now
                                   : kNoDeadline;
      const std::int64_t budget = job.mac_budget > 0 ? job.mac_budget : -1;
      const std::int64_t rem_budget =
          budget < 0 ? -1 : std::max<std::int64_t>(0, budget - job.macs);
      bool stop = false;
      obs::HaltReason why = obs::HaltReason::kNone;
      if (level >= cfg_.max_subnet) {
        stop = true;
        why = obs::HaltReason::kMaxLevel;
      } else if (level >= job.target) {
        stop = true;
        why = job.deadline_abs_ms > 0.0 && job.target < cfg_.max_subnet
                  ? obs::HaltReason::kDeadline
                  : obs::HaltReason::kTarget;
      }
      if (!stop && cfg_.confidence_threshold > 0.0 &&
          top1 >= cfg_.confidence_threshold) {
        stop = true;
        why = obs::HaltReason::kConfidence;
      }
      if (!stop &&
          !planner_->step_fits(level, level + 1, remaining, rem_budget, b)) {
        stop = true;
        why = rem_budget >= 0 &&
                      planner_->costs().step_macs(level, level + 1) > rem_budget
                  ? obs::HaltReason::kBudget
                  : obs::HaltReason::kDeadline;
      }

      job.steps.push_back({.subnet = level, .at_ms = now - job.submit_ms,
                           .macs = job.macs, .confidence = top1,
                           .final = stop});
      if (job.on_step) job.on_step(job.steps.back());

      if (stop) {
        Done d;
        d.j = static_cast<std::size_t>(j);
        d.halt = why;
        d.final_ms = now - job.submit_ms;
        flight_.event(job.flight, obs::FlightEventKind::kHalt, now,
                      static_cast<std::int64_t>(why), level);
        Tensor row({1, classes});
        std::memcpy(row.data(),
                    y.data() + static_cast<std::size_t>(j) * classes,
                    sizeof(float) * static_cast<std::size_t>(classes));
        d.logits = std::move(row);
        d.missed = job.deadline_abs_ms > 0.0 &&
                   job.submit_ms + job.first_ms > job.deadline_abs_ms;
        done.push_back(std::move(d));
      } else {
        survivors.push_back(static_cast<std::size_t>(j));
      }
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (Job& job : jobs) fail_job(job, err);
    runq_.retire(jobs.size());
    return;
  }

  batch_span.arg("batch", b);
  batch_span.arg("level", level);
  batch_span.arg("macs", step_img * b);
  m_.batch_ms->observe(now_ms() - start_ms);

  // Re-enter survivors FIRST: another worker can merge them into its next
  // pass while this one is still publishing. Each survivor carries the new
  // shared state (its row of this pass's activations) — the old source
  // batches' state frees itself once the last row referencing it moves on.
  for (std::size_t idx : survivors) {
    Job& job = jobs[idx];
    job.level = level;
    if (cfg_.reuse) {
      job.acts = acts;
      job.acts_row = static_cast<int>(idx);
    }
    runq_.push_survivor(std::move(job));
  }

  // Counters BEFORE promises, completed first: a caller observing its future
  // resolved must also observe its request completed, and misses/exits never
  // exceed completed.
  std::uint64_t misses = 0;
  for (const Done& d : done) {
    if (d.missed) ++misses;
  }
  m_.completed->inc(static_cast<std::uint64_t>(done.size()));
  m_.deadline_misses->inc(misses);
  m_.batched_inputs->inc(static_cast<std::uint64_t>(done.size()));
  if (!done.empty()) {
    m_.exits[static_cast<std::size_t>(level - 1)]->inc(
        static_cast<std::uint64_t>(done.size()));
  }

  STEPPING_TRACE_SCOPE_CAT("serve", "serve.publish");
  const double publish_ms = now_ms();
  for (Done& d : done) {
    publish(jobs[d.j], std::move(d.logits), level, d.halt, d.missed,
            d.final_ms, publish_ms);
  }
  runq_.retire(done.size());
}

void Server::publish(Job& job, Tensor logits, int level, obs::HaltReason halt,
                     bool missed, double final_ms, double publish_ms) {
  ServedResult res;
  res.logits = std::move(logits);
  res.exit_subnet = level;
  res.confidence = job.confidence;
  res.macs = job.macs;
  res.deadline_missed = missed;
  res.queue_ms = job.queue_ms;
  res.first_result_ms = job.first_ms;
  res.final_ms = final_ms;
  m_.queue_ms->observe(res.queue_ms);
  m_.first_result_ms->observe(res.first_result_ms);
  m_.final_ms->observe(res.final_ms);
  slo_.record(publish_ms, missed);
  flight_.event(job.flight, obs::FlightEventKind::kFinalPublish, publish_ms,
                level, missed ? 1 : 0);
  flight_.finish(job.flight, level, halt, missed, res.queue_ms, job.first_ms,
                 final_ms);
  res.steps = std::move(job.steps);
  job.promise.set_value(std::move(res));
}

}  // namespace stepping::serve
