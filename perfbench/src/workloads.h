// The workloads of the benchmark and every constant that defines
// them. A later change that claims a gain must not edit this file: the
// inputs, sizes and gates below are what its numbers are compared on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "nn/network.h"
#include "tensor/tensor.h"

namespace perfbench {

/// A paper network sized by its Table I budgets: the budgets are fractions
/// of the MACs of the unexpanded reference network at the same width.
struct TableOneSpec {
  std::string model;
  int classes;
  double expansion;
  double width;
  std::vector<double> budgets;  ///< P_i / M_t, ascending
};

/// VGG-16, CIFAR-100 head (Table I row 3).
inline TableOneSpec vgg16_spec() {
  return {"vgg16", 100, 1.8, 0.25, {0.20, 0.40, 0.50, 0.70}};
}
/// LeNet-3C1L, CIFAR-10 head (Table I row 1), at the given width.
inline TableOneSpec lenet_spec(double width) {
  return {"lenet3c1l", 10, 1.8, width, {0.10, 0.30, 0.50, 0.85}};
}

/// Each level's analytic MACs must lie within this share of its Table I
/// budget times the reference MACs. Sizing by full*i/5 of the expanded
/// network instead lands 2x-4x above the budgets.
inline constexpr double kBudgetTolerance = 0.05;

/// Model weights are part of the workload definition and fixed; --seed
/// only varies the inputs.
inline constexpr std::uint64_t kModelSeed = 2023;

/// Builds the expanded network, assigns prefix subnets sized to the Table I
/// budgets, and checks budget fidelity (throws when a level is outside
/// kBudgetTolerance). `ref_macs_out` receives M_t.
stepping::Network build_table_one(const TableOneSpec& spec,
                                  std::int64_t* ref_macs_out);

/// The unexpanded reference network of `spec` (expansion 1.0).
stepping::Network build_reference(const TableOneSpec& spec);

/// The expanded network of `spec`, every unit still in subnet 1.
stepping::Network build_expanded(const TableOneSpec& spec);

/// `n` images of shape (1, 3, 32, 32) drawn from N(0, 1) with `seed`.
std::vector<stepping::Tensor> random_images(int n, std::uint64_t seed);

/// memcmp equality of two tensors (shape and bytes).
bool same_bits(const stepping::Tensor& a, const stepping::Tensor& b);

/// Logits of a from-scratch fp32 Network::forward at `level`.
stepping::Tensor forward_at(stepping::Network& net, const stepping::Tensor& x,
                            int level);

// ---- workloads ------------------------------------------------------------
// Each sets up (repeatedly, for setup_s), runs its timed phase and reports
// the end-to-end metrics. In a traced run it reports the shared counters
// instead: ladder_lenet over a second run of its phase with spans on,
// serve_mixed over its one phase, which records no spans.

void run_ladder_lenet(const Args& args, Tracer& tr, Report& rep);
void run_serve_mixed(const Args& args, Report& rep);

// ---- per-layer probes of a traced run --------------------------------------
// A traced run emits every per-layer metric the benchmark lists, so each
// traced run measures the ladder, serving and training layers alike; the
// counters both workloads move (pack cache, GEMM packs, arena growth) come
// from the named workload's own traced phase.

void probe_ladder_layers(const Args& args, Tracer& tr, Report& rep);
void probe_serve_layers(const Args& args, Tracer& tr, Report& rep);
void probe_train_layers(const Args& args, Tracer& tr, Report& rep);

}  // namespace perfbench
