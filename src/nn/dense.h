// Subnet-aware fully-connected layer.
//
// Consumes a flat IOSpec (insert Flatten after convolutions). Weight columns
// are grouped per input unit (`features_per_unit` consecutive columns map to
// one producer unit) so the structural rule applies at unit granularity even
// after flattening an HxW plane.
//
// At fp32 inference a Dense runs one subnet block at a time: the units of
// subnet k read exactly the columns of input units with subnet <= k (a
// head at level l reads those with subnet <= l), so each block is one GEMM
// of those units' weights, gathered from the live weights on every call
// (MaskedLayer::gather_weights), against the matching input columns. A
// ladder step to level l runs the blocks of the subnets that join. No pass
// multiplies a structurally zero weight, so an Inf or NaN in an input a
// unit cannot read never reaches it and a cold pass equals the ladder step
// that reuses the unit. A Network runs a body Dense and the ReLU after it
// as one stage (nn/stage.h) through forward_levels. Training, backward and
// int8 use effective_weights().
#pragma once

#include <vector>

#include "nn/masked_layer.h"

namespace stepping {

class Dense final : public MaskedLayer {
 public:
  Dense(std::string name, int out_features);

  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  /// forward() followed by ReLU, applied in the GEMM's output store
  /// (inference).
  Tensor forward_relu(const Tensor& x, const SubnetContext& ctx);
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  Tensor forward_step(const Tensor& x, const Tensor& cached_y, int from_subnet,
                      const SubnetContext& ctx) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }

  /// The fp32 inference route of forward, forward_step and a fused
  /// Dense -> ReLU stage (nn/stage.h): for each unit u joining between
  /// levels `from` and `to` (from < s(u) <= to; every unit of a head),
  /// adds x * W(u)^T + bias[u] into column u of y (N x units) over the
  /// columns u reads (input units of subnet <= s(u); <= `to` for a head),
  /// then ReLU if `relu`. Other columns are untouched. A `to` above every
  /// assigned subnet is that subnet; below 1 it throws
  /// std::invalid_argument.
  void forward_levels(const Tensor& x, int from, int to, bool relu, Tensor& y);

 private:
  Tensor forward_impl(const Tensor& x, const SubnetContext& ctx, bool relu);

  std::string name_;
  int out_features_;

  std::vector<int> block_in_units_;  ///< scratch for forward_levels()

  Tensor x_cache_;
  Tensor preact_cache_;
};

}  // namespace stepping
