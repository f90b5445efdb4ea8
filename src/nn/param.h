// Trainable parameter: value + gradient + optimizer hints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace stepping {

/// A named trainable tensor with its gradient accumulator.
///
/// `elem_lr_scale`, when non-null, points to a per-element learning-rate
/// multiplier owned by the layer. SteppingNet uses it to suppress weight
/// updates in smaller subnets while a larger subnet trains (paper §III-A2,
/// the beta^(k-o) rule); it stays null for plain training.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Per-element LR multipliers (size == value.numel()) or nullptr for 1.0.
  const std::vector<float>* elem_lr_scale = nullptr;
  /// Whether weight decay applies (false for biases / BN affine params).
  bool apply_decay = true;
  /// Bumped by every optimizer step and by deserialization, so state keyed
  /// on the value (a ladder state's network_signature, core/incremental.h)
  /// can detect staleness.
  std::uint64_t version = 0;

  void zero_grad() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
    grad.zero();
  }
};

}  // namespace stepping
