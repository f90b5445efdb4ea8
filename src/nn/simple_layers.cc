#include "nn/simple_layers.h"

#include <cassert>
#include <stdexcept>

#include "tensor/ops.h"

namespace stepping {

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

IOSpec ReLU::wire(const IOSpec& in, Rng& rng) {
  (void)rng;
  return in;
}

Tensor ReLU::forward(const Tensor& x, const SubnetContext& ctx) {
  // Only training records the backward mask: an inference forward between a
  // training forward and its backward must not overwrite it.
  Tensor y;
  relu_forward(x, y, ctx.training ? &mask_ : nullptr);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_y, const SubnetContext& ctx) {
  (void)ctx;
  Tensor grad_x;
  relu_backward(grad_y, mask_, grad_x);
  return grad_x;
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

IOSpec MaxPool2d::wire(const IOSpec& in, Rng& rng) {
  (void)rng;
  if (in.flat) throw std::invalid_argument(name_ + ": MaxPool2d needs NCHW");
  if (in.h % k_ != 0 || in.w % k_ != 0) {
    throw std::invalid_argument(name_ + ": extent not divisible by pool size");
  }
  IOSpec out = in;
  out.h = in.h / k_;
  out.w = in.w / k_;
  return out;
}

Tensor MaxPool2d::forward(const Tensor& x, const SubnetContext& ctx) {
  // The argmax is backward state: training-only, like ReLU's mask.
  Tensor y;
  maxpool_forward(x, k_, y, ctx.training ? &argmax_ : nullptr);
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_y, const SubnetContext& ctx) {
  (void)ctx;
  // wire() requires extents divisible by k, so the input is exactly k x k
  // times the output plane.
  Tensor grad_x({grad_y.dim(0), grad_y.dim(1), grad_y.dim(2) * k_,
                 grad_y.dim(3) * k_});
  maxpool_backward(grad_y, argmax_, grad_x);
  return grad_x;
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

IOSpec Flatten::wire(const IOSpec& in, Rng& rng) {
  (void)rng;
  if (in.flat) throw std::invalid_argument(name_ + ": input already flat");
  in_c_ = in.units;
  in_h_ = in.h;
  in_w_ = in.w;
  IOSpec out;
  out.units = in.units;
  out.features_per_unit = in.h * in.w;
  out.flat = true;
  out.assignment = in.assignment;
  return out;
}

Tensor Flatten::forward(const Tensor& x, const SubnetContext& ctx) {
  (void)ctx;
  assert(x.rank() == 4 && x.dim(1) == in_c_ && x.dim(2) == in_h_ &&
         x.dim(3) == in_w_);
  const int n = x.dim(0);
  const int f = static_cast<int>(x.numel() / n);
  return x.reshaped({n, f});
}

Tensor Flatten::backward(const Tensor& grad_y, const SubnetContext& ctx) {
  (void)ctx;
  // The input shape is fixed at wire time, so no forward (training or not)
  // has to leave state behind for this pass.
  return grad_y.reshaped({grad_y.dim(0), in_c_, in_h_, in_w_});
}

}  // namespace stepping
