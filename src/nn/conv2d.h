// Subnet-aware 2-D convolution (NCHW).
//
// Each output filter is a "unit" in the paper's sense; the structural rule
// s(in) <= s(out) gates whole kernel-column groups of the weight matrix.
// A unit of subnet l therefore reads only input channels with s(in) <= l,
// and the fp32 forward, forward_step and forward_delta all take one route
// (conv_rows -> conv2d_implicit in tensor/ops.h) that costs what the step
// computes: it copies only those channels, zero-padded, gathers the
// weights of only the computed units and channels, and runs the GEMM's
// axpy micro-kernel straight off that copy — no im2col matrix, no pack.
// Every dropped term has a structurally zero weight, which the explicit
// im2col + GEMM route skips too, so the output bits equal a full-width
// lowering's on every ISA tier. Heads read every channel; the int8 path
// and backward keep im2col and the full effective weight matrix.
#pragma once

#include <vector>

#include "nn/masked_layer.h"
#include "tensor/ops.h"

namespace stepping {

class Conv2d final : public MaskedLayer {
 public:
  /// pad < 0 selects "same" padding (kernel / 2).
  Conv2d(std::string name, int out_channels, int kernel, int stride = 1,
         int pad = -1);

  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  bool can_fuse_relu() const override { return true; }
  Tensor forward_relu(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  Tensor forward_step(const Tensor& x, const Tensor& cached_y, int from_subnet,
                      const SubnetContext& ctx) override;
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    return conv_dirty_out_region(geom_, in);
  }
  /// Delta recompute saves real MACs here (the body convs dominate the MAC
  /// budget); heads are recomputed in full per subnet, so they opt out.
  bool supports_spatial_delta() const override { return !is_head(); }
  Tensor forward_delta(const Tensor& x, const Tensor& cached_y,
                       const SpatialRegion& out_region,
                       const SubnetContext& ctx) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }

  const Conv2dGeometry& geometry() const { return geom_; }

 private:
  Tensor forward_impl(const Tensor& x, const SubnetContext& ctx, bool relu);
  /// The fp32 route of every forward: writes y (n, units, out_h, out_w)
  /// = W * x (+ bias, + ReLU if `relu`) over the rows flagged in `rows`
  /// and the input channels subnet `subnet_id` can read, at the output
  /// positions of `region` (clipped). Rows not flagged and positions
  /// outside the region are untouched.
  void conv_rows(const Tensor& x, const unsigned char* rows, int subnet_id,
                 const SpatialRegion& region, bool relu, float* y);

  std::string name_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Conv2dGeometry geom_;

  // Per-batch caches for backward.
  Tensor x_cache_;       // input (im2col recomputed in backward to save RAM)
  Tensor preact_cache_;  // conv output + bias, pre-masking (Eq. 2 harvest)
};

}  // namespace stepping
