// Per-channel batch normalization (NCHW).
//
// Subnet safety (DESIGN.md §6 decision 2): BN statistics are per channel and
// a channel's pre-activation is identical in every subnet that contains it
// (the structural rule fixes its input set), so a single BN layer serves all
// subnets. Running statistics are only updated for channels active in the
// executing subnet so that training a small subnet cannot corrupt the
// statistics of channels it does not contain.
#pragma once

#include <vector>

#include "nn/layer.h"
#include "nn/param.h"

namespace stepping {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::string name, float eps = 1e-5f,
                       float momentum = 0.1f);

  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  /// Inference BN is elementwise per channel (running statistics do not
  /// depend on the current input), so a dirty input element dirties exactly
  /// itself. Streaming delta runs inference-only, where this holds.
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    return in;
  }
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  void prepare_lr_suppression(int num_subnets, double beta) override;
  void activate_lr_scale(int k) override;
  std::unique_ptr<Layer> clone() const override {
    auto c = std::make_unique<BatchNorm2d>(*this);
    c->gamma_.elem_lr_scale = nullptr;
    c->beta_.elem_lr_scale = nullptr;
    return c;
  }

  int channels() const { return channels_; }
  /// Writes each channel's inference 1 / sqrt(running_var + eps), exactly
  /// as forward() computes it, into inv_std[0, channels()). With
  /// running_mean(), gamma() and beta() it is the transform a fused conv
  /// stage's epilogue applies (tensor/ops.h ConvEpilogue).
  void inference_inv_std(float* inv_std) const;
  const Tensor& gamma() const { return gamma_.value; }
  const Tensor& beta() const { return beta_.value; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  /// Mutable access for deserialization.
  Tensor& mutable_running_mean() { return running_mean_; }
  Tensor& mutable_running_var() { return running_var_; }

 private:
  std::string name_;
  float eps_;
  float momentum_;
  int channels_ = 0;

  Param gamma_;
  Param beta_;
  Tensor running_mean_;
  Tensor running_var_;

  AssignmentPtr assignment_;

  // Training caches.
  Tensor xhat_cache_;
  std::vector<float> inv_std_cache_;

  std::vector<std::vector<float>> lr_scale_;  // [k-1][channel]
};

}  // namespace stepping
