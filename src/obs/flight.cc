#include "obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "util/env.h"

namespace stepping::obs {

namespace {

constexpr long kDefaultRing = 1024;
constexpr long kDefaultRetain = 32;
constexpr long kDefaultStragglers = 8;
/// Hard cap on the ring (a slot is ~1.5 KiB; 1<<20 records ≈ 1.5 GiB is
/// already far past any sane configuration).
constexpr long kMaxRing = 1 << 20;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* flight_event_name(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kEnqueue: return "enqueue";
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kBatchJoin: return "batch_join";
    case FlightEventKind::kStepStart: return "step_start";
    case FlightEventKind::kStepEnd: return "step_end";
    case FlightEventKind::kPrelimPublish: return "prelim_publish";
    case FlightEventKind::kHalt: return "halt";
    case FlightEventKind::kFinalPublish: return "final_publish";
    case FlightEventKind::kAdmitDecision: return "admit_decision";
    case FlightEventKind::kBatchRejoin: return "batch_rejoin";
    case FlightEventKind::kStreamFrame: return "stream_frame";
    case FlightEventKind::kDeltaReuse: return "delta_reuse";
  }
  return "unknown";
}

const char* halt_reason_name(HaltReason r) {
  switch (r) {
    case HaltReason::kNone: return "none";
    case HaltReason::kTarget: return "target";
    case HaltReason::kConfidence: return "confidence";
    case HaltReason::kBudget: return "budget";
    case HaltReason::kDeadline: return "deadline";
    case HaltReason::kMaxLevel: return "max_level";
    case HaltReason::kShutdown: return "shutdown";
    case HaltReason::kRejected: return "rejected";
    case HaltReason::kAdmitRejected: return "admit_rejected";
    case HaltReason::kFailed: return "failed";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() : FlightRecorder(Config()) {}

FlightRecorder::FlightRecorder(Config cfg) {
  long ring = cfg.ring >= 0 ? cfg.ring
                            : env_or_int("STEPPING_FLIGHT_RING", kDefaultRing);
  ring = std::clamp<long>(ring, 0, kMaxRing);
  ring_ = std::vector<Slot>(static_cast<std::size_t>(ring));
  const long retain =
      cfg.retain_misses >= 0
          ? cfg.retain_misses
          : env_or_int("STEPPING_FLIGHT_RETAIN", kDefaultRetain);
  const long stragglers =
      cfg.retain_stragglers >= 0
          ? cfg.retain_stragglers
          : env_or_int("STEPPING_FLIGHT_STRAGGLERS", kDefaultStragglers);
  retain_misses_cap_ = static_cast<std::size_t>(std::max<long>(0, retain));
  retain_stragglers_cap_ =
      static_cast<std::size_t>(std::max<long>(0, stragglers));
}

FlightHandle FlightRecorder::begin(std::uint64_t request_id, double submit_ms,
                                   double deadline_abs_ms,
                                   std::int64_t mac_budget) {
  if (ring_.empty()) return {};
  const std::uint64_t idx =
      cursor_.fetch_add(1, std::memory_order_relaxed) % ring_.size();
  Slot& slot = ring_[static_cast<std::size_t>(idx)];
  std::uint32_t expected = slot.state.load(std::memory_order_relaxed);
  // One CAS attempt, never a wait: an open slot means the ring wrapped onto
  // a request that is still in flight — drop THIS request's recording.
  if (expected == kOpen ||
      !slot.state.compare_exchange_strong(expected, kOpen,
                                          std::memory_order_acq_rel)) {
    ring_dropped_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  slot.d = FlightData{};
  slot.d.request_id = request_id;
  slot.d.submit_ms = submit_ms;
  slot.d.deadline_abs_ms = deadline_abs_ms;
  slot.d.mac_budget = mac_budget;
  records_.fetch_add(1, std::memory_order_relaxed);
  return FlightHandle{&slot};
}

void FlightRecorder::event(FlightHandle h, FlightEventKind k, double t_ms,
                           std::int64_t a0, std::int64_t a1, std::int64_t a2) {
  if (!h) return;
  FlightData& d = static_cast<Slot*>(h.slot)->d;
  if (d.num_events >= kFlightMaxEvents) {
    ++d.events_dropped;
    events_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  FlightEvent& e = d.events[d.num_events++];
  e.kind = k;
  e.t_ms = t_ms;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
}

void FlightRecorder::set_batch(FlightHandle h, std::uint64_t batch_id,
                               int batch_size, int planned_target,
                               int isa_tier) {
  if (!h) return;
  FlightData& d = static_cast<Slot*>(h.slot)->d;
  d.batch_id = batch_id;
  d.batch_size = batch_size;
  d.planned_target = planned_target;
  d.isa_tier = isa_tier;
}

void FlightRecorder::set_level(FlightHandle h, int level, double predicted_ms,
                               double actual_ms, std::int64_t macs) {
  if (!h || level < 1 || level > kFlightMaxLevels) return;
  FlightData& d = static_cast<Slot*>(h.slot)->d;
  d.predicted_ms[level - 1] = predicted_ms;
  d.actual_ms[level - 1] = actual_ms;
  d.level_macs[level - 1] = macs;
  d.num_levels = std::max(d.num_levels, level);
}

void FlightRecorder::finish(FlightHandle h, int exit_level, HaltReason halt,
                            bool missed, double queue_ms, double first_ms,
                            double final_ms) {
  if (!h) return;
  Slot& slot = *static_cast<Slot*>(h.slot);
  FlightData& d = slot.d;
  d.exit_level = exit_level;
  d.halt = halt;
  d.missed = missed;
  d.queue_ms = queue_ms;
  d.first_ms = first_ms;
  d.final_ms = final_ms;
  // Retention is the rare path: misses always qualify; completed requests
  // only when they beat the straggler floor (one relaxed load otherwise).
  // Rejected records (exit_level == 0) are not postmortem material.
  if (exit_level > 0 &&
      (missed || final_ms > straggler_floor_.load(std::memory_order_relaxed))) {
    retain(d);
  }
  slot.state.store(kDone, std::memory_order_release);
}

void FlightRecorder::retain(const FlightData& d) {
  std::lock_guard<std::mutex> lock(retained_mu_);
  if (d.missed && retain_misses_cap_ > 0) {
    misses_.push_back(d);
    if (misses_.size() > retain_misses_cap_) misses_.pop_front();
  }
  if (retain_stragglers_cap_ == 0) return;
  if (stragglers_.size() >= retain_stragglers_cap_ &&
      d.final_ms <= stragglers_.back().final_ms) {
    return;  // raced past the relaxed floor; the real floor says no
  }
  const auto at = std::upper_bound(
      stragglers_.begin(), stragglers_.end(), d,
      [](const FlightData& a, const FlightData& b) {
        return a.final_ms > b.final_ms;
      });
  stragglers_.insert(at, d);
  if (stragglers_.size() > retain_stragglers_cap_) stragglers_.pop_back();
  if (stragglers_.size() >= retain_stragglers_cap_) {
    straggler_floor_.store(stragglers_.back().final_ms,
                           std::memory_order_relaxed);
  }
}

namespace {

void append_event_json(std::string& out, const FlightEvent& e) {
  out += "{\"t_ms\":" + fmt_double(e.t_ms) + ",\"event\":\"" +
         flight_event_name(e.kind) + "\"";
  switch (e.kind) {
    case FlightEventKind::kEnqueue:
      break;
    case FlightEventKind::kAdmit:
      out += ",\"worker\":" + std::to_string(e.a0);
      break;
    case FlightEventKind::kBatchJoin:
      out += ",\"batch_id\":" + std::to_string(e.a0) +
             ",\"size\":" + std::to_string(e.a1);
      break;
    case FlightEventKind::kStepStart:
      out += ",\"level\":" + std::to_string(e.a0) +
             ",\"isa\":" + std::to_string(e.a1);
      break;
    case FlightEventKind::kStepEnd:
      out += ",\"level\":" + std::to_string(e.a0) +
             ",\"macs\":" + std::to_string(e.a1) +
             ",\"confidence_ppm\":" + std::to_string(e.a2);
      break;
    case FlightEventKind::kPrelimPublish:
      out += ",\"level\":" + std::to_string(e.a0) +
             ",\"confidence_ppm\":" + std::to_string(e.a1);
      break;
    case FlightEventKind::kHalt:
      out += std::string(",\"reason\":\"") +
             halt_reason_name(static_cast<HaltReason>(e.a0)) +
             "\",\"level\":" + std::to_string(e.a1);
      break;
    case FlightEventKind::kFinalPublish:
      out += ",\"level\":" + std::to_string(e.a0) +
             ",\"missed\":" + std::to_string(e.a1);
      break;
    case FlightEventKind::kAdmitDecision:
      out += std::string(",\"verdict\":\"") +
             (e.a0 == 0 ? "accept" : e.a0 == 1 ? "degrade" : "reject") +
             "\",\"target\":" + std::to_string(e.a1) +
             ",\"predicted_wait_us\":" + std::to_string(e.a2);
      break;
    case FlightEventKind::kBatchRejoin:
      out += ",\"batch_id\":" + std::to_string(e.a0) +
             ",\"size\":" + std::to_string(e.a1) +
             ",\"level\":" + std::to_string(e.a2);
      break;
    case FlightEventKind::kStreamFrame:
      out += ",\"stream_id\":" + std::to_string(e.a0) +
             ",\"dirty_tiles\":" + std::to_string(e.a1) +
             ",\"level\":" + std::to_string(e.a2);
      break;
    case FlightEventKind::kDeltaReuse:
      out += ",\"macs_saved\":" + std::to_string(e.a0) +
             ",\"macs\":" + std::to_string(e.a1) +
             ",\"reused\":" + std::to_string(e.a2);
      break;
  }
  out += "}";
}

void append_record_json(std::string& out, const FlightData& d,
                        const char* kind) {
  out += "{\"kind\":\"";
  out += kind;
  out += "\",\"request_id\":" + std::to_string(d.request_id) +
         ",\"submit_ms\":" + fmt_double(d.submit_ms) +
         ",\"deadline_abs_ms\":" + fmt_double(d.deadline_abs_ms) +
         ",\"mac_budget\":" + std::to_string(d.mac_budget) +
         ",\"planned_target\":" + std::to_string(d.planned_target) +
         ",\"batch_id\":" + std::to_string(d.batch_id) +
         ",\"batch_size\":" + std::to_string(d.batch_size) +
         ",\"isa_tier\":" + std::to_string(d.isa_tier) +
         ",\"exit_level\":" + std::to_string(d.exit_level) +
         std::string(",\"halt_reason\":\"") + halt_reason_name(d.halt) +
         "\",\"missed\":" + (d.missed ? "true" : "false") +
         ",\"queue_ms\":" + fmt_double(d.queue_ms) +
         ",\"first_ms\":" + fmt_double(d.first_ms) +
         ",\"final_ms\":" + fmt_double(d.final_ms) + ",\"levels\":[";
  for (int l = 0; l < d.num_levels; ++l) {
    if (l) out += ",";
    out += "{\"level\":" + std::to_string(l + 1) +
           ",\"predicted_ms\":" + fmt_double(d.predicted_ms[l]) +
           ",\"actual_ms\":" + fmt_double(d.actual_ms[l]) +
           ",\"macs\":" + std::to_string(d.level_macs[l]) + "}";
  }
  out += "],\"events_dropped\":" + std::to_string(d.events_dropped) +
         ",\"timeline\":[";
  for (int i = 0; i < d.num_events; ++i) {
    if (i) out += ",";
    append_event_json(out, d.events[i]);
  }
  out += "]}";
}

}  // namespace

std::string FlightRecorder::postmortems_json() const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  std::string out = "{\"flight\":{\"ring\":" + std::to_string(ring_.size()) +
                    ",\"records\":" + std::to_string(records()) +
                    ",\"drops\":" + std::to_string(ring_dropped()) +
                    ",\"event_drops\":" + std::to_string(events_dropped()) +
                    ",\"retained_misses\":" + std::to_string(misses_.size()) +
                    ",\"retained_stragglers\":" +
                    std::to_string(stragglers_.size()) +
                    "},\"postmortems\":[";
  bool first = true;
  for (const FlightData& d : misses_) {
    if (!first) out += ",";
    first = false;
    append_record_json(out, d, "deadline_miss");
  }
  for (const FlightData& d : stragglers_) {
    if (!first) out += ",";
    first = false;
    append_record_json(out, d, "straggler");
  }
  out += "]}";
  return out;
}

std::vector<FlightData> FlightRecorder::retained_misses() const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  return std::vector<FlightData>(misses_.begin(), misses_.end());
}

std::vector<FlightData> FlightRecorder::retained_stragglers() const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  return stragglers_;
}

}  // namespace stepping::obs
