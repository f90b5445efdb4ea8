// Public facade: the end-to-end SteppingNet pipeline.
//
// Quickstart (see examples/quickstart.cpp):
//   auto data = make_synthetic(synth_cifar10());
//   Network net = build_lenet3c1l({.classes = 10, .expansion = 1.8});
//   SteppingConfig cfg;
//   cfg.mac_budget_frac = {0.10, 0.30, 0.50, 0.85};
//   cfg.reference_macs = full_macs_of_unexpanded_reference;
//   SteppingNet sn(std::move(net), cfg);
//   sn.pretrain(data.train, /*epochs=*/8);
//   sn.construct(data.train);
//   sn.distill(data.train, /*epochs=*/4);
//   double a2 = sn.accuracy(data.test, /*subnet=*/2);
#pragma once

#include <cstdint>

#include "core/builder.h"
#include "core/config.h"
#include "core/incremental.h"
#include "data/dataset.h"
#include "nn/network.h"
#include "nn/sgd.h"
#include "util/rng.h"

namespace stepping {

class SteppingNet {
 public:
  /// Takes ownership of a wired network whose units all sit in subnet 1
  /// (the expanded original network of the paper).
  SteppingNet(Network net, SteppingConfig cfg, std::uint64_t seed = 1234);

  Network& network() { return net_; }
  const SteppingConfig& config() const { return cfg_; }
  Sgd& optimizer() { return sgd_; }

  /// Phase 1 — pretrain the full (expanded) network with plain CE; also
  /// freezes the teacher softmax targets for later distillation.
  /// Returns final training loss.
  double pretrain(const Dataset& train, int epochs, int batch_size = 32);

  /// Phase 2 — Figure-3 subnet construction.
  ConstructionReport construct(const Dataset& train, int batch_size = 32);

  /// Phase 3 — Eq. 4 knowledge-distillation retraining of all subnets.
  void distill(const Dataset& train, int epochs, int batch_size = 32);

  /// Top-1 accuracy of subnet `subnet_id` (1..N).
  double accuracy(const Dataset& data, int subnet_id);

  /// Analytic MACs of subnet `subnet_id`.
  std::int64_t macs(int subnet_id);

  /// MAC ratio M_i / M_t against the configured reference network.
  double mac_fraction(int subnet_id);

  /// Logits of subnet `subnet_id` for a batch.
  Tensor predict(const Tensor& x, int subnet_id);

 private:
  Network net_;
  SteppingConfig cfg_;
  Sgd sgd_;
  Rng rng_;
  Tensor teacher_probs_;
  std::int64_t reference_macs_ = 0;
};

}  // namespace stepping
