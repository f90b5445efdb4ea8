#include "nn/depthwise_conv2d.h"

#include <cassert>
#include <stdexcept>

#include "util/thread_pool.h"

namespace stepping {

DepthwiseConv2d::DepthwiseConv2d(std::string name, int kernel, int stride,
                                 int pad)
    : name_(std::move(name)),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? kernel / 2 : pad) {
  if (kernel <= 0 || stride <= 0) {
    throw std::invalid_argument("DepthwiseConv2d: bad hyperparameters");
  }
}

IOSpec DepthwiseConv2d::wire(const IOSpec& in, Rng& rng) {
  if (in.flat) {
    throw std::invalid_argument(name_ + ": DepthwiseConv2d needs spatial input");
  }
  geom_ = Conv2dGeometry{in.units, in.h, in.w, in.units, kernel_, stride_, pad_};
  if (geom_.out_h() <= 0 || geom_.out_w() <= 0) {
    throw std::invalid_argument(name_ + ": output collapses to zero size");
  }
  init_structure(in.units, kernel_ * kernel_, kernel_ * kernel_,
                 static_cast<std::int64_t>(geom_.out_h()) * geom_.out_w(),
                 in.assignment, rng, kernel_ * kernel_);
  // A depthwise unit lives and dies with its producer: share the assignment
  // storage so moves propagate automatically.
  out_assign_ = in_assign_;

  IOSpec out;
  out.units = in.units;
  out.features_per_unit = 1;
  out.h = geom_.out_h();
  out.w = geom_.out_w();
  out.flat = false;
  out.assignment = out_assign_;
  return out;
}

void DepthwiseConv2d::conv_plane(const float* x, const float* w,
                                 float* y) const {
  const int oh = geom_.out_h(), ow = geom_.out_w();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      float acc = 0.0f;
      for (int ky = 0; ky < kernel_; ++ky) {
        const int iy = oy * stride_ + ky - pad_;
        if (iy < 0 || iy >= geom_.in_h) continue;
        for (int kx = 0; kx < kernel_; ++kx) {
          const int ix = ox * stride_ + kx - pad_;
          if (ix < 0 || ix >= geom_.in_w) continue;
          acc += w[ky * kernel_ + kx] * x[iy * geom_.in_w + ix];
        }
      }
      y[oy * ow + ox] = acc;
    }
  }
}

void DepthwiseConv2d::conv_plane_backward(const float* gy, const float* w,
                                          float* gx) const {
  const int oh = geom_.out_h(), ow = geom_.out_w();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const float g = gy[oy * ow + ox];
      if (g == 0.0f) continue;
      for (int ky = 0; ky < kernel_; ++ky) {
        const int iy = oy * stride_ + ky - pad_;
        if (iy < 0 || iy >= geom_.in_h) continue;
        for (int kx = 0; kx < kernel_; ++kx) {
          const int ix = ox * stride_ + kx - pad_;
          if (ix < 0 || ix >= geom_.in_w) continue;
          gx[iy * geom_.in_w + ix] += g * w[ky * kernel_ + kx];
        }
      }
    }
  }
}

void DepthwiseConv2d::conv_plane_weight_grad(const float* x, const float* gy,
                                             float* gw) const {
  const int oh = geom_.out_h(), ow = geom_.out_w();
  for (int ky = 0; ky < kernel_; ++ky) {
    for (int kx = 0; kx < kernel_; ++kx) {
      float acc = 0.0f;
      for (int oy = 0; oy < oh; ++oy) {
        const int iy = oy * stride_ + ky - pad_;
        if (iy < 0 || iy >= geom_.in_h) continue;
        for (int ox = 0; ox < ow; ++ox) {
          const int ix = ox * stride_ + kx - pad_;
          if (ix < 0 || ix >= geom_.in_w) continue;
          acc += x[iy * geom_.in_w + ix] * gy[oy * ow + ox];
        }
      }
      gw[ky * kernel_ + kx] += acc;
    }
  }
}

Tensor DepthwiseConv2d::forward(const Tensor& x, const SubnetContext& ctx) {
  assert(x.rank() == 4 && x.dim(1) == units_);
  const int n = x.dim(0);
  const int oh = geom_.out_h(), ow = geom_.out_w();
  const int spatial = oh * ow;
  const Tensor& w = effective_weights();
  const auto& active = active_flags(ctx.subnet_id);

  Tensor y({n, units_, oh, ow});
  const std::int64_t in_plane = static_cast<std::int64_t>(geom_.in_h) * geom_.in_w;
  const float* b = bias_.value.data();
  // Each (image, unit) plane is independent; partition the flattened plane
  // index so every output plane is owned by one thread.
  parallel_for_cost(0, static_cast<std::int64_t>(n) * units_,
                    static_cast<std::int64_t>(spatial) * cols_,
                    [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const int i = static_cast<int>(p / units_);
      const int u = static_cast<int>(p % units_);
      if (!active[static_cast<std::size_t>(u)]) continue;
      const float* xp =
          x.data() + (static_cast<std::int64_t>(i) * units_ + u) * in_plane;
      float* yp =
          y.data() + (static_cast<std::int64_t>(i) * units_ + u) * spatial;
      conv_plane(xp, w.data() + static_cast<std::int64_t>(u) * cols_, yp);
      const float bu = b[u];
      for (int s = 0; s < spatial; ++s) yp[s] += bu;
    }
  });
  if (ctx.training) {
    x_cache_ = x;
    preact_cache_ = y;
  }
  return y;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_y_in,
                                 const SubnetContext& ctx) {
  Tensor grad_y = grad_y_in;
  const int n = grad_y.dim(0);
  const int spatial = geom_.out_h() * geom_.out_w();
  if (!is_head_) mask_inactive_units(grad_y, *out_assign_, 1, ctx.subnet_id);

  if (ctx.harvest_importance) {
    harvest_importance(grad_y, preact_cache_, ctx, spatial);
  }

  if (weight_.grad.shape() != weight_.value.shape()) weight_.zero_grad();
  if (bias_.grad.shape() != bias_.value.shape()) bias_.zero_grad();

  const Tensor& w = effective_weights();
  const auto& active = active_flags(ctx.subnet_id);
  Tensor grad_x(x_cache_.shape());
  const std::int64_t in_plane = static_cast<std::int64_t>(geom_.in_h) * geom_.in_w;
  float* db = bias_.grad.data();
  // Partition over units (not images): weight/bias gradients of unit u are
  // then owned by one thread, and the per-unit accumulation over images
  // keeps the serial i-ascending order, so gradients stay bit-exact.
  parallel_for_cost(0, units_,
                    static_cast<std::int64_t>(n) * spatial * cols_ * 2,
                    [&](std::int64_t u0, std::int64_t u1) {
    for (std::int64_t u = u0; u < u1; ++u) {
      if (!active[static_cast<std::size_t>(u)]) continue;
      for (int i = 0; i < n; ++i) {
        const float* gy =
            grad_y.data() + (static_cast<std::int64_t>(i) * units_ + u) * spatial;
        const float* xp =
            x_cache_.data() +
            (static_cast<std::int64_t>(i) * units_ + u) * in_plane;
        float* gx =
            grad_x.data() + (static_cast<std::int64_t>(i) * units_ + u) * in_plane;
        conv_plane_weight_grad(xp, gy,
                               weight_.grad.data() +
                                   static_cast<std::int64_t>(u) * cols_);
        conv_plane_backward(gy, w.data() + static_cast<std::int64_t>(u) * cols_,
                            gx);
        float acc = 0.0f;
        for (int s = 0; s < spatial; ++s) acc += gy[s];
        db[u] += acc;
      }
    }
  });
  return grad_x;
}

Tensor DepthwiseConv2d::forward_step(const Tensor& x, const Tensor& cached_y,
                                     int from_subnet, const SubnetContext& ctx) {
  assert(!ctx.training);
  if (cached_y.empty()) return forward(x, ctx);
  const int n = x.dim(0);
  const int spatial = geom_.out_h() * geom_.out_w();
  const Tensor& w = effective_weights();
  Tensor y = cached_y;
  const std::int64_t in_plane = static_cast<std::int64_t>(geom_.in_h) * geom_.in_w;
  const float* b = bias_.value.data();
  parallel_for_cost(0, static_cast<std::int64_t>(n) * units_,
                    static_cast<std::int64_t>(spatial) * cols_,
                    [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const int i = static_cast<int>(p / units_);
      const int u = static_cast<int>(p % units_);
      const int sv = (*out_assign_)[static_cast<std::size_t>(u)];
      if (sv <= from_subnet || sv > ctx.subnet_id) continue;
      const float* xp =
          x.data() + (static_cast<std::int64_t>(i) * units_ + u) * in_plane;
      float* yp =
          y.data() + (static_cast<std::int64_t>(i) * units_ + u) * spatial;
      conv_plane(xp, w.data() + static_cast<std::int64_t>(u) * cols_, yp);
      for (int s = 0; s < spatial; ++s) yp[s] += b[u];
    }
  });
  if (!is_head_) mask_inactive_units(y, *out_assign_, 1, ctx.subnet_id);
  return y;
}

}  // namespace stepping
