// Parameterless layers: ReLU, MaxPool2d, Flatten.
//
// None of these mix channels, so they preserve the subnet reuse invariant
// untouched: an inactive (zeroed) channel stays zero through ReLU and
// MaxPool, and Flatten only reinterprets the feature axis, forwarding the
// producer's assignment at `features_per_unit = H*W` granularity.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace stepping {

class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  /// Elementwise: a dirty input element dirties exactly itself.
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    return in;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }

 private:
  std::string name_;
  std::vector<unsigned char> mask_;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, int k) : name_(std::move(name)), k_(k) {}
  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  /// Non-overlapping kxk window, stride k: output (r, c) reads input
  /// [r*k, r*k + k) x [c*k, c*k + k), so dirty input [i0, i1) maps to
  /// output [i0 / k, ceil(i1 / k)).
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    const IOSpec& s = out_spec();
    SpatialRegion r{in.r0 / k_, (in.r1 + k_ - 1) / k_, in.c0 / k_,
                    (in.c1 + k_ - 1) / k_};
    return r.clipped(s.h, s.w);
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(*this);
  }

  /// Window edge and stride.
  int kernel() const { return k_; }

 private:
  std::string name_;
  int k_;
  std::vector<int> argmax_;
};

class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }

 private:
  std::string name_;
  int in_c_ = 0, in_h_ = 0, in_w_ = 0;  ///< wired input extents
};

}  // namespace stepping
