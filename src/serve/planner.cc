#include "serve/planner.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/macs.h"

namespace stepping::serve {

std::int64_t LevelCosts::step_macs(int from, int to) const {
  assert(to >= 1 && to <= max_level() && from >= 0 && from < to);
  const std::int64_t body_from =
      from == 0 ? 0 : body[static_cast<std::size_t>(from - 1)];
  return full[static_cast<std::size_t>(to - 1)] - body_from;
}

std::int64_t LevelCosts::stepped_macs_through(int level) const {
  std::int64_t total = 0;
  for (int l = 1; l <= level; ++l) total += step_macs(l - 1, l);
  return total;
}

LevelCosts measure_level_costs(Network& net, int max_level) {
  LevelCosts costs;
  costs.full.reserve(static_cast<std::size_t>(max_level));
  costs.body.reserve(static_cast<std::size_t>(max_level));
  for (int l = 1; l <= max_level; ++l) {
    std::int64_t full = 0, body = 0;
    for (MaskedLayer* m : net.masked_layers()) {
      const std::int64_t macs = m->subnet_macs(l);
      full += macs;
      if (!m->is_head()) body += macs;
    }
    costs.full.push_back(full);
    costs.body.push_back(body);
  }
  return costs;
}

Planner::Planner(LevelCosts costs, DeviceModel dev)
    : costs_(std::move(costs)), dev_(std::move(dev)) {
  if (costs_.max_level() < 1) {
    throw std::invalid_argument("Planner: at least one level required");
  }
  if (costs_.full.size() != costs_.body.size()) {
    throw std::invalid_argument("Planner: full/body table size mismatch");
  }
}

double Planner::step_ms(int from, int to, int batch) const {
  return dev_.latency_ms(costs_.step_macs(from, to) * batch);
}

double Planner::predicted_level_ms(int level, int batch,
                                   LadderMode mode) const {
  assert(level >= 1 && level <= max_level());
  switch (mode) {
    case LadderMode::kReuse:
      return step_ms(level - 1, level, batch);
    case LadderMode::kFromScratch:
      return dev_.latency_ms(costs_.full[static_cast<std::size_t>(level - 1)] *
                             batch);
  }
  return 0.0;
}

double Planner::ladder_ms(int level, int batch) const {
  double ms = 0.0;
  for (int l = 1; l <= level; ++l) ms += step_ms(l - 1, l, batch);
  return ms;
}

double Planner::stream_delta_ms(int level, double dirty_frac, int batch) const {
  assert(level >= 1 && level <= max_level());
  const double frac = std::clamp(dirty_frac, 0.0, 1.0);
  const std::int64_t full = costs_.full[static_cast<std::size_t>(level - 1)];
  const std::int64_t body = costs_.body[static_cast<std::size_t>(level - 1)];
  const double macs =
      static_cast<double>(body) * frac + static_cast<double>(full - body);
  return dev_.latency_ms(static_cast<std::int64_t>(macs) * batch);
}

int Planner::target_level(double remaining_ms, int batch) const {
  int target = 0;
  double ms = 0.0;
  for (int l = 1; l <= max_level(); ++l) {
    ms += step_ms(l - 1, l, batch);
    if (ms <= remaining_ms) target = l;
  }
  return target;
}

double Planner::predicted_queue_ms(std::size_t queue_depth, int workers,
                                   int max_batch, LadderMode mode) const {
  if (queue_depth == 0) return 0.0;
  const std::size_t mb = static_cast<std::size_t>(std::max(1, max_batch));
  const std::size_t nw = static_cast<std::size_t>(std::max(1, workers));
  const std::size_t batches_ahead = (queue_depth + mb - 1) / mb;
  const std::size_t per_worker = (batches_ahead + nw - 1) / nw;
  return static_cast<double>(per_worker) *
         predicted_level_ms(1, max_batch, mode);
}

Planner::AdmitDecision Planner::admit_decision(double deadline_rel_ms,
                                               std::size_t queue_depth,
                                               int workers, int max_batch,
                                               LadderMode mode) const {
  AdmitDecision d;
  if (deadline_rel_ms <= 0.0) {  // no deadline: nothing to predict against
    d.target = max_level();
    return d;
  }
  d.predicted_wait_ms =
      predicted_queue_ms(queue_depth, workers, max_batch, mode);
  d.target = target_level(deadline_rel_ms - d.predicted_wait_ms, max_batch);
  d.admit = d.target >= 1;
  d.degraded = d.admit && d.target < max_level();
  return d;
}

bool Planner::step_fits(int from, int to, double remaining_ms,
                        std::int64_t remaining_budget, int batch) const {
  if (step_ms(from, to, batch) > remaining_ms) return false;
  if (remaining_budget >= 0 && costs_.step_macs(from, to) > remaining_budget) {
    return false;
  }
  return true;
}

}  // namespace stepping::serve
