#include "nn/batchnorm.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace stepping {

BatchNorm2d::BatchNorm2d(std::string name, float eps, float momentum)
    : name_(std::move(name)), eps_(eps), momentum_(momentum) {}

IOSpec BatchNorm2d::wire(const IOSpec& in, Rng& rng) {
  (void)rng;
  if (in.flat) throw std::invalid_argument(name_ + ": BatchNorm2d needs NCHW");
  const bool first_wire = (channels_ == 0);
  channels_ = in.units;
  assignment_ = in.assignment;
  if (first_wire) {
    gamma_.value = Tensor({channels_});
    gamma_.value.fill(1.0f);
    gamma_.apply_decay = false;
    beta_.value = Tensor({channels_});
    beta_.apply_decay = false;
    running_mean_ = Tensor({channels_});
    running_var_ = Tensor({channels_});
    running_var_.fill(1.0f);
  } else {
    assert(gamma_.value.dim(0) == channels_);
  }
  return in;  // shape and assignment unchanged
}

namespace {

float inv_std_of(float var, float eps) { return 1.0f / std::sqrt(var + eps); }

}  // namespace

void BatchNorm2d::inference_inv_std(float* inv_std) const {
  for (int c = 0; c < channels_; ++c) inv_std[c] = inv_std_of(running_var_[c], eps_);
}

Tensor BatchNorm2d::forward(const Tensor& x, const SubnetContext& ctx) {
  assert(x.rank() == 4 && x.dim(1) == channels_);
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  const std::int64_t m = static_cast<std::int64_t>(n) * plane;

  Tensor y(x.shape());
  if (ctx.training) {
    if (xhat_cache_.shape() != x.shape()) xhat_cache_ = Tensor(x.shape());
    inv_std_cache_.assign(static_cast<std::size_t>(channels_), 0.0f);
  }

  const float* px = x.data();
  float* py = y.data();
  float* pxhat = ctx.training ? xhat_cache_.data() : nullptr;
  for (int c = 0; c < channels_; ++c) {
    const bool active = (*assignment_)[static_cast<std::size_t>(c)] <= ctx.subnet_id;
    if (!active) {
      // y is freshly zero-filled; just invalidate the xhat cache planes.
      if (ctx.training) {
        for (int i = 0; i < n; ++i) {
          const std::int64_t off =
              (static_cast<std::int64_t>(i) * channels_ + c) * plane;
          float* xh = pxhat + off;
          for (std::int64_t j = 0; j < plane; ++j) xh[j] = 0.0f;
        }
      }
      continue;
    }
    float mean, var;
    if (ctx.training) {
      double s = 0.0, s2 = 0.0;
      for (int i = 0; i < n; ++i) {
        const float* src = px + (static_cast<std::int64_t>(i) * channels_ + c) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          s += src[j];
          s2 += static_cast<double>(src[j]) * src[j];
        }
      }
      mean = static_cast<float>(s / static_cast<double>(m));
      var = static_cast<float>(s2 / static_cast<double>(m)) - mean * mean;
      if (var < 0.0f) var = 0.0f;
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * var;
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float inv_std = inv_std_of(var, eps_);
    if (ctx.training) inv_std_cache_[static_cast<std::size_t>(c)] = inv_std;
    const float g = gamma_.value[c], b = beta_.value[c];
    for (int i = 0; i < n; ++i) {
      const std::int64_t off = (static_cast<std::int64_t>(i) * channels_ + c) * plane;
      const float* src = px + off;
      float* dst = py + off;
      for (std::int64_t j = 0; j < plane; ++j) {
        const float xv = (src[j] - mean) * inv_std;
        dst[j] = g * xv + b;
        if (ctx.training) pxhat[off + j] = xv;
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_y, const SubnetContext& ctx) {
  assert(ctx.training);
  const int n = grad_y.dim(0), h = grad_y.dim(2), w = grad_y.dim(3);
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  const std::int64_t m = static_cast<std::int64_t>(n) * plane;

  if (gamma_.grad.shape() != gamma_.value.shape()) gamma_.zero_grad();
  if (beta_.grad.shape() != beta_.value.shape()) beta_.zero_grad();

  Tensor grad_x(grad_y.shape());
  const float* gy = grad_y.data();
  const float* xh = xhat_cache_.data();
  float* gx = grad_x.data();

  for (int c = 0; c < channels_; ++c) {
    const bool active = (*assignment_)[static_cast<std::size_t>(c)] <= ctx.subnet_id;
    if (!active) continue;  // grad_x is freshly zero-filled
    double sum_gy = 0.0, sum_gy_xh = 0.0;
    for (int i = 0; i < n; ++i) {
      const std::int64_t off = (static_cast<std::int64_t>(i) * channels_ + c) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        sum_gy += gy[off + j];
        sum_gy_xh += static_cast<double>(gy[off + j]) * xh[off + j];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_gy_xh);
    beta_.grad[c] += static_cast<float>(sum_gy);

    const float g = gamma_.value[c];
    const float inv_std = inv_std_cache_[static_cast<std::size_t>(c)];
    const float k1 = static_cast<float>(sum_gy / static_cast<double>(m));
    const float k2 = static_cast<float>(sum_gy_xh / static_cast<double>(m));
    for (int i = 0; i < n; ++i) {
      const std::int64_t off = (static_cast<std::int64_t>(i) * channels_ + c) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        gx[off + j] = g * inv_std * (gy[off + j] - k1 - xh[off + j] * k2);
      }
    }
  }
  return grad_x;
}

void BatchNorm2d::prepare_lr_suppression(int num_subnets, double beta) {
  lr_scale_.assign(static_cast<std::size_t>(num_subnets), {});
  for (int k = 1; k <= num_subnets; ++k) {
    auto& s = lr_scale_[static_cast<std::size_t>(k - 1)];
    s.assign(static_cast<std::size_t>(channels_), 1.0f);
    for (int c = 0; c < channels_; ++c) {
      const int o = (*assignment_)[static_cast<std::size_t>(c)];
      if (o < k) s[static_cast<std::size_t>(c)] = static_cast<float>(std::pow(beta, k - o));
    }
  }
}

void BatchNorm2d::activate_lr_scale(int k) {
  if (k <= 0 || lr_scale_.empty()) {
    gamma_.elem_lr_scale = nullptr;
    beta_.elem_lr_scale = nullptr;
    return;
  }
  assert(k <= static_cast<int>(lr_scale_.size()));
  gamma_.elem_lr_scale = &lr_scale_[static_cast<std::size_t>(k - 1)];
  beta_.elem_lr_scale = &lr_scale_[static_cast<std::size_t>(k - 1)];
}

}  // namespace stepping
