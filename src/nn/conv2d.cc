#include "nn/conv2d.h"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "quant/calibration.h"
#include "quant/prepared.h"
#include "tensor/gemm_kernel.h"
#include "util/arena.h"

namespace stepping {

Conv2d::Conv2d(std::string name, int out_channels, int kernel, int stride,
               int pad)
    : name_(std::move(name)),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? kernel / 2 : pad) {
  if (out_channels <= 0 || kernel <= 0 || stride <= 0) {
    throw std::invalid_argument("Conv2d: bad hyperparameters");
  }
}

IOSpec Conv2d::wire(const IOSpec& in, Rng& rng) {
  if (in.flat) throw std::invalid_argument(name_ + ": Conv2d needs spatial input");
  geom_ = Conv2dGeometry{in.units, in.h, in.w, out_channels_, kernel_, stride_,
                         pad_};
  if (geom_.out_h() <= 0 || geom_.out_w() <= 0) {
    throw std::invalid_argument(name_ + ": output collapses to zero size");
  }
  const int patch = geom_.patch();
  init_structure(out_channels_, patch, kernel_ * kernel_,
                 static_cast<std::int64_t>(geom_.out_h()) * geom_.out_w(),
                 in.assignment, rng, patch);
  IOSpec out;
  out.units = out_channels_;
  out.features_per_unit = 1;
  out.h = geom_.out_h();
  out.w = geom_.out_w();
  out.flat = false;
  out.assignment = out_assign_;
  return out;
}

Tensor Conv2d::forward(const Tensor& x, const SubnetContext& ctx) {
  return forward_impl(x, ctx, /*relu=*/false);
}

Tensor Conv2d::forward_relu(const Tensor& x, const SubnetContext& ctx) {
  assert(!ctx.training);  // fusion is inference-only (backward needs preact)
  return forward_impl(x, ctx, /*relu=*/true);
}

void Conv2d::conv_rows(const Tensor& x, const unsigned char* rows,
                       int subnet_id, const SpatialRegion& region, bool relu,
                       float* y) {
  const std::vector<int>& channels = readable_in_units(subnet_id);
  const int ld = static_cast<int>(channels.size()) * kernel_ * kernel_;
  // The weight workspace comes from the per-thread arena: reused across
  // calls (zero heap allocations once warmed up — asserted by the conv
  // arena test).
  ArenaScope ws;
  float* a = ws.alloc_floats(static_cast<std::size_t>(units_) * ld);
  gather_weights(rows, &channels, a);
  conv2d_implicit(x.data(), x.dim(0), geom_, channels, a, rows,
                  bias_.value.data(), relu, region, y);
}

Tensor Conv2d::forward_impl(const Tensor& x, const SubnetContext& ctx,
                            bool relu) {
  assert(x.rank() == 4 && x.dim(1) == geom_.in_c);
  const int n = x.dim(0);
  const int oh = geom_.out_h(), ow = geom_.out_w();
  const auto& active = active_flags(ctx.subnet_id);

  if (ctx.calib_record != nullptr && !ctx.training) {
    // im2col only replicates/zero-pads input values, and 0 quantizes exactly
    // to the zero point, so calibrating on x covers the column matrix too.
    ctx.calib_record->record(name_, ctx.subnet_id, x.data(),
                             static_cast<std::size_t>(x.numel()));
  }

  // Int8 rung (ISSUE 7): see Dense::forward_impl. Resolved once per batch;
  // non-null => every image below runs the u8 x i8 provider.
  const quant::CalibEntry* calib = nullptr;
  if (ctx.precision == quant::Precision::kInt8 && !ctx.training && !is_head_ &&
      ctx.calibration != nullptr) {
    calib = ctx.calibration->find(name_, ctx.subnet_id);
  }

  Tensor y({n, units_, oh, ow});  // zero-filled; inactive units stay zero
  if (calib != nullptr) {
    const Tensor& w = effective_weights();
    const int spatial = oh * ow;
    const std::int64_t patch = geom_.patch();
    ArenaScope ws;
    float* cols = ws.alloc_floats(static_cast<std::size_t>(patch) * spatial);
    const std::int64_t in_img = static_cast<std::int64_t>(geom_.in_c) *
                                geom_.in_h * geom_.in_w;
    const std::int64_t out_img = static_cast<std::int64_t>(units_) * spatial;
    const quant::PreparedInt8 pw = quant::prepare_int8_weights(
        pack_id(), w.data(), units_, static_cast<int>(patch));
    const quant::ActQuant aq = ctx.calibration->params(*calib);
    for (int i = 0; i < n; ++i) {
      im2col(x.data() + i * in_img, geom_, cols);
      quant::int8_conv_forward(cols, spatial, pw, aq, active.data(),
                               bias_.value.data(), relu,
                               y.data() + i * out_img);
    }
    return y;
  }
  conv_rows(x, active.data(), ctx.subnet_id, SpatialRegion::full(oh, ow), relu,
            y.data());

  if (ctx.training) {
    x_cache_ = x;
    preact_cache_ = y;  // Eq. 2 harvesting (inactive units zero, skipped)
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_y_in, const SubnetContext& ctx) {
  Tensor grad_y = grad_y_in;
  const int n = grad_y.dim(0);
  const int oh = geom_.out_h(), ow = geom_.out_w();
  const int spatial = oh * ow;
  if (!is_head_) mask_inactive_units(grad_y, *out_assign_, 1, ctx.subnet_id);

  if (ctx.harvest_importance) {
    harvest_importance(grad_y, preact_cache_, ctx, spatial);
  }

  if (weight_.grad.shape() != weight_.value.shape()) weight_.zero_grad();
  if (bias_.grad.shape() != bias_.value.shape()) bias_.zero_grad();

  const Tensor& w = effective_weights();
  const auto& active = active_flags(ctx.subnet_id);
  Tensor grad_x(x_cache_.shape());
  ArenaScope ws;
  const std::int64_t patch = geom_.patch();
  float* cols = ws.alloc_floats(static_cast<std::size_t>(patch) * spatial);
  float* dcols = ws.alloc_floats(static_cast<std::size_t>(patch) * spatial);
  const std::int64_t in_img = static_cast<std::int64_t>(geom_.in_c) * geom_.in_h *
                              geom_.in_w;
  const std::int64_t out_img = static_cast<std::int64_t>(units_) * spatial;

  for (int i = 0; i < n; ++i) {
    im2col(x_cache_.data() + i * in_img, geom_, cols);
    // gi (U x S) is image i's slice of grad_y, read in place (the former
    // per-image Tensor copy is gone).
    const float* gi = grad_y.data() + i * out_img;
    // dW (U x P) += gi (U x S) * cols^T (S x P), active units only (grads of
    // inactive units are identically zero).
    gemm_nt_rows_acc(gi, cols, weight_.grad.data(), units_, spatial,
                     static_cast<int>(patch), active.data());
    // db += row sums of gi
    float* db = bias_.grad.data();
    for (int u = 0; u < units_; ++u) {
      if (!active[static_cast<std::size_t>(u)]) continue;
      float acc = 0.0f;
      for (int s = 0; s < spatial; ++s)
        acc += gi[static_cast<std::int64_t>(u) * spatial + s];
      db[u] += acc;
    }
    // dcols (P x S) = w^T (P x U) * gi (U x S), skipping inactive units.
    gemm_tn_rows(w.data(), gi, dcols, static_cast<int>(patch), units_, spatial,
                 active.data());
    col2im(dcols, geom_, grad_x.data() + i * in_img);
  }
  return grad_x;
}

Tensor Conv2d::forward_delta(const Tensor& x, const Tensor& cached_y,
                             const SpatialRegion& out_region,
                             const SubnetContext& ctx) {
  assert(!ctx.training);
  // Fall back to a full pass whenever the cached plane cannot be spliced
  // into: no cache, head semantics, int8 precision (delta reuse is an fp32
  // bitwise property, like incremental step-up), a degenerate region, or a
  // region that already covers the plane.
  const int oh = geom_.out_h(), ow = geom_.out_w();
  const SpatialRegion reg = out_region.clipped(oh, ow);
  const bool int8_pass = ctx.precision == quant::Precision::kInt8 &&
                         ctx.calibration != nullptr;
  if (cached_y.empty() || is_head_ || int8_pass || ctx.calib_record != nullptr ||
      reg.covers(oh, ow)) {
    return forward(x, ctx);
  }
  assert(x.rank() == 4 && x.dim(1) == geom_.in_c &&
         cached_y.shape() == std::vector<int>({x.dim(0), units_, oh, ow}));
  // Clean positions keep frame t's bits; the dirty ones are recomputed in
  // place, through the same route as forward(), so they get exactly the
  // bits a full pass would put there.
  Tensor y = cached_y;
  if (reg.empty()) return y;  // nothing dirty reaches this layer
  const auto& active = active_flags(ctx.subnet_id);
  conv_rows(x, active.data(), ctx.subnet_id, reg, /*relu=*/false, y.data());
  return y;
}

Tensor Conv2d::forward_step(const Tensor& x, const Tensor& cached_y,
                            int from_subnet, const SubnetContext& ctx) {
  assert(!ctx.training);
  // A head recomputes every unit, which is exactly forward().
  if (cached_y.empty() || is_head_) return forward(x, ctx);
  Tensor y = cached_y;  // reuse results of units evaluated at from_subnet

  // Evaluate only the units joining in (from_subnet, subnet_id], through the
  // SAME route forward() uses, so step-up follows the active ISA tier's
  // multiply-add semantics and stays bit-identical to a from-scratch
  // evaluation. Reused units are skipped untouched.
  std::vector<unsigned char> fresh(static_cast<std::size_t>(units_), 0);
  for (int u = 0; u < units_; ++u) {
    const int sv = (*out_assign_)[static_cast<std::size_t>(u)];
    if (sv > from_subnet && sv <= ctx.subnet_id) fresh[static_cast<std::size_t>(u)] = 1;
  }
  conv_rows(x, fresh.data(), ctx.subnet_id,
            SpatialRegion::full(geom_.out_h(), geom_.out_w()), /*relu=*/false,
            y.data());
  mask_inactive_units(y, *out_assign_, 1, ctx.subnet_id);
  return y;
}

}  // namespace stepping
