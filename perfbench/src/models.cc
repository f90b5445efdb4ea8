#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "baselines/any_width.h"
#include "core/macs.h"
#include "models/models.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

stepping::ModelConfig model_config(const TableOneSpec& spec, double expansion) {
  stepping::ModelConfig mc;
  mc.classes = spec.classes;
  mc.expansion = expansion;
  mc.width_mult = spec.width;
  mc.seed = kModelSeed;
  return mc;
}

}  // namespace

stepping::Network build_reference(const TableOneSpec& spec) {
  return stepping::build_model(spec.model, model_config(spec, 1.0));
}

stepping::Network build_expanded(const TableOneSpec& spec) {
  return stepping::build_model(spec.model, model_config(spec, spec.expansion));
}

stepping::Network build_table_one(const TableOneSpec& spec,
                                  std::int64_t* ref_macs_out) {
  stepping::Network ref = build_reference(spec);
  const std::int64_t ref_macs = stepping::full_macs(ref);
  stepping::Network net = build_expanded(spec);
  std::vector<std::int64_t> budgets;
  for (double f : spec.budgets) {
    budgets.push_back(static_cast<std::int64_t>(f * static_cast<double>(ref_macs)));
  }
  // Prefix subnets obey the structural rule (a unit reads only producers of
  // its own or a smaller subnet), so a level keeps fewer MACs than the
  // uniform-width prefix the solver sizes. Rescale the solver's targets
  // until every level's analytic MACs meet its budget.
  std::vector<std::int64_t> target = budgets;
  for (int it = 0; it < 8; ++it) {
    stepping::assign_prefix_subnets(net,
                                    stepping::solve_prefix_fractions(net, target));
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      const double got = static_cast<double>(
          stepping::subnet_macs(net, static_cast<int>(i) + 1));
      target[i] = static_cast<std::int64_t>(static_cast<double>(target[i]) *
                                            static_cast<double>(budgets[i]) / got);
    }
  }
  std::printf("budget fidelity %s (M_i / (P_i * M_t), tolerance %.2f):",
              spec.model.c_str(), kBudgetTolerance);
  bool ok = true;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const int level = static_cast<int>(i) + 1;
    const double ratio = static_cast<double>(stepping::subnet_macs(net, level)) /
                         static_cast<double>(budgets[i]);
    std::printf(" L%d=%.3f", level, ratio);
    ok = ok && std::fabs(ratio - 1.0) <= kBudgetTolerance;
  }
  std::printf("\n");
  if (!ok) {
    throw std::runtime_error(spec.model +
                             ": a level's MACs are outside the Table I tolerance");
  }
  if (ref_macs_out != nullptr) *ref_macs_out = ref_macs;
  return net;
}

std::vector<stepping::Tensor> random_images(int n, std::uint64_t seed) {
  std::vector<stepping::Tensor> out;
  stepping::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    stepping::Tensor x({1, 3, 32, 32});
    stepping::fill_normal(x, 0.0f, 1.0f, rng);
    out.push_back(std::move(x));
  }
  return out;
}

bool same_bits(const stepping::Tensor& a, const stepping::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

stepping::Tensor forward_at(stepping::Network& net, const stepping::Tensor& x,
                            int level) {
  stepping::SubnetContext ctx;
  ctx.subnet_id = level;
  ctx.training = false;
  return net.forward(x, ctx);
}

}  // namespace perfbench
