// Subnet-aware 2-D convolution (NCHW), lowered to GEMM via im2col.
//
// Each output filter is a "unit" in the paper's sense; the structural rule
// s(in) <= s(out) gates whole kernel-column groups of the weight matrix.
// A unit of subnet l therefore reads only input channels with s(in) <= l,
// and the fp32 forward, forward_step and forward_delta all take one
// lowering route (lowered_gemm) that costs what the step computes: it
// lowers only those channels, gathers the weights of only the computed
// units and channels, and runs gemm_rows_bias over that compacted
// contraction. Every dropped term has a structurally zero weight, which
// every GEMM route on every ISA tier skips, so the output bits equal a
// full-width lowering's. Heads read every channel; the int8 path and
// backward keep the full effective weight matrix.
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
  /// The fp32 lowering route: for each image i, out + i * units * area
  /// (area = region.area()) += W * cols (+ bias, + ReLU if `relu`) over the
  /// rows flagged in `rows` and the input channels subnet `subnet_id` can
  /// read, at the output positions of `region` (clipped, non-empty). Rows
  /// not flagged are untouched; callers pass zeroed flagged rows.
  void lowered_gemm(const Tensor& x, const unsigned char* rows, int subnet_id,
                    const SpatialRegion& region, bool relu, float* out);

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
