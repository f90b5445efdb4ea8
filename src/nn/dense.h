// Subnet-aware fully-connected layer.
//
// Consumes a flat IOSpec (insert Flatten after convolutions). Weight columns
// are grouped per input unit (`features_per_unit` consecutive columns map to
// one producer unit) so the structural rule applies at unit granularity even
// after flattening an HxW plane. At fp32 inference a Network runs a body
// Dense and the ReLU after it as one stage (nn/stage.h) through
// forward_rows.
#pragma once

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

  /// The fp32 inference route of forward_step and of a fused Dense -> ReLU
  /// stage (nn/stage.h): for each unit u flagged in `rows`, adds
  /// x * W(u)^T + bias[u] into column u of y (N x units), then ReLU if
  /// `relu`. Other columns are untouched.
  void forward_rows(const Tensor& x, const unsigned char* rows, bool relu,
                    Tensor& y);

 private:
  Tensor forward_impl(const Tensor& x, const SubnetContext& ctx, bool relu);

  std::string name_;
  int out_features_;

  Tensor x_cache_;
  Tensor preact_cache_;
};

}  // namespace stepping
