#include "core/adaptive.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "tensor/ops.h"

namespace stepping {

AdaptiveExecutor::AdaptiveExecutor(Network& net, AdaptiveConfig cfg)
    : net_(net), cfg_(cfg), exec_(net), max_level_(cfg.max_subnet) {
  if (max_level_ < 1) {
    throw std::invalid_argument("AdaptiveExecutor: max_subnet required (>= 1)");
  }
  if (cfg_.confidence_threshold <= 0.0 || cfg_.confidence_threshold > 1.0) {
    throw std::invalid_argument("AdaptiveExecutor: threshold must be in (0, 1]");
  }
}

AdaptiveResult AdaptiveExecutor::run(const Tensor& x) {
  assert(x.rank() == 4 && x.dim(0) == 1);
  AdaptiveResult out;
  exec_.reset();
  Tensor probs;
  for (int level = 1; level <= max_level_; ++level) {
    if (level > 1 && cfg_.mac_budget > 0 &&
        out.macs + ladder_step_macs(net_, level - 1, level) > cfg_.mac_budget) {
      break;
    }
    out.logits = exec_.run(x, level);
    out.macs += exec_.last_step_macs();
    out.exit_subnet = level;
    softmax_rows(out.logits, probs);
    double top1 = 0.0;
    for (int c = 0; c < probs.dim(1); ++c) {
      top1 = std::max(top1, static_cast<double>(probs.at(0, c)));
    }
    out.confidence = top1;
    if (top1 >= cfg_.confidence_threshold) break;
  }
  return out;
}

}  // namespace stepping
