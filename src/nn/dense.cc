#include "nn/dense.h"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "quant/calibration.h"
#include "quant/prepared.h"
#include "tensor/ops.h"

namespace stepping {

Dense::Dense(std::string name, int out_features)
    : name_(std::move(name)), out_features_(out_features) {
  if (out_features <= 0) throw std::invalid_argument("Dense: bad out_features");
}

IOSpec Dense::wire(const IOSpec& in, Rng& rng) {
  if (!in.flat) {
    throw std::invalid_argument(name_ + ": Dense needs flat input (add Flatten)");
  }
  const int in_features = in.total_features();
  init_structure(out_features_, in_features, in.features_per_unit,
                 /*macs_per_weight=*/1, in.assignment, rng, in_features);
  IOSpec out;
  out.units = out_features_;
  out.features_per_unit = 1;
  out.flat = true;
  out.assignment = out_assign_;
  return out;
}

Tensor Dense::forward(const Tensor& x, const SubnetContext& ctx) {
  return forward_impl(x, ctx, /*relu=*/false);
}

Tensor Dense::forward_relu(const Tensor& x, const SubnetContext& ctx) {
  assert(!ctx.training);  // fusion is inference-only (backward needs preact)
  return forward_impl(x, ctx, /*relu=*/true);
}

Tensor Dense::forward_impl(const Tensor& x, const SubnetContext& ctx,
                           bool relu) {
  assert(x.rank() == 2 && x.dim(1) == cols_);
  const int n = x.dim(0);

  if (ctx.calib_record != nullptr && !ctx.training) {
    ctx.calib_record->record(name_, ctx.subnet_id, x.data(),
                             static_cast<std::size_t>(x.numel()));
  }

  Tensor y({n, units_});  // zero-filled; inactive units stay zero

  // Int8 rung (ISSUE 7): body layers with a calibrated input range run the
  // u8 x i8 providers on the level's compact operand (the units it computes
  // over the input units it reads); heads stay fp32 (logits feed confidence
  // gates), as does any (layer, level) pair calibration never saw.
  if (ctx.precision == quant::Precision::kInt8 && !ctx.training && !is_head_ &&
      ctx.calibration != nullptr) {
    if (const quant::CalibEntry* e =
            ctx.calibration->find(name_, ctx.subnet_id)) {
      quant::int8_dense_forward(x.data(), n, cols_, int8_operand(ctx.subnet_id),
                                ctx.calibration->params(*e),
                                bias_.value.data(), relu, units_, y.data());
      return y;
    }
  }

  // y (N x U) = x (N x F) * w^T, bias (and optionally ReLU) fused into the
  // micro-kernel store. Training passes pack_id 0: weights change every step,
  // so caching their packed panels would only thrash the cache.
  const Tensor& w = effective_weights();  // refreshes pack_id()
  gemm_nt_cols_bias(x, w, y, active_flags(ctx.subnet_id).data(),
                    bias_.value.data(), relu, ctx.training ? 0 : pack_id());

  if (ctx.training) {
    x_cache_ = x;
    preact_cache_ = y;
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_y_in, const SubnetContext& ctx) {
  Tensor grad_y = grad_y_in;
  if (!is_head_) mask_inactive_units(grad_y, *out_assign_, 1, ctx.subnet_id);

  if (ctx.harvest_importance) {
    harvest_importance(grad_y, preact_cache_, ctx, /*per_unit=*/1);
  }

  if (weight_.grad.shape() != weight_.value.shape()) weight_.zero_grad();
  if (bias_.grad.shape() != bias_.value.shape()) bias_.zero_grad();

  const int n = grad_y.dim(0);
  // dW (U x F) += grad^T (U x N) * x (N x F)
  gemm_tn(grad_y, x_cache_, weight_.grad, /*accumulate=*/true);
  // db += column sums of grad
  float* db = bias_.grad.data();
  const float* g = grad_y.data();
  for (int i = 0; i < n; ++i) {
    for (int u = 0; u < units_; ++u) db[u] += g[static_cast<std::int64_t>(i) * units_ + u];
  }
  // dx (N x F) = grad (N x U) * w (U x F)
  const Tensor& w = effective_weights();
  Tensor grad_x({n, cols_});
  gemm(grad_y, w, grad_x);
  return grad_x;
}

Tensor Dense::forward_step(const Tensor& x, const Tensor& cached_y,
                           int from_subnet, const SubnetContext& ctx) {
  assert(!ctx.training);
  // A head recomputes every unit, which is exactly forward().
  if (cached_y.empty() || is_head_) return forward(x, ctx);
  // Evaluate only the units joining in (from_subnet, subnet_id]; reused
  // units are skipped untouched.
  Tensor y = cached_y;
  forward_rows(x, step_flags(from_subnet, ctx.subnet_id).data(), /*relu=*/false,
               y);
  mask_inactive_units(y, *out_assign_, 1, ctx.subnet_id);
  return y;
}

void Dense::forward_rows(const Tensor& x, const unsigned char* rows, bool relu,
                         Tensor& y) {
  // The SAME dispatcher forward() uses: whatever multiply-add semantics the
  // active ISA tier has, a step sees the identical per-element operation
  // sequence, so results stay bit-identical to a from-scratch evaluation.
  // A unit a step adds is zero in its cached output (masked when that was
  // produced), so the kernel's accumulate-into-C is an overwrite for it.
  const Tensor& w = effective_weights();  // refreshes pack_id()
  gemm_nt_cols_bias(x, w, y, rows, bias_.value.data(), relu, pack_id());
}

}  // namespace stepping
