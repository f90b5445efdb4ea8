#include "nn/dense.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "quant/calibration.h"
#include "quant/prepared.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/arena.h"

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

  if (!ctx.training) {
    forward_levels(x, 0, ctx.subnet_id, relu, y);
    return y;
  }
  // y (N x U) = x (N x F) * w^T over the full effective matrix, bias fused
  // into the micro-kernel store.
  gemm_nt_cols_bias(x, effective_weights(), y, active_flags(ctx.subnet_id).data(),
                    bias_.value.data(), relu);
  x_cache_ = x;
  preact_cache_ = y;
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
  forward_levels(x, from_subnet, ctx.subnet_id, /*relu=*/false, y);
  mask_inactive_units(y, *out_assign_, 1, ctx.subnet_id);
  return y;
}

void Dense::forward_levels(const Tensor& x, int from, int to, bool relu,
                           Tensor& y) {
  assert(x.rank() == 2 && x.dim(1) == cols_ && y.dim(0) == x.dim(0));
  if (to < 1) throw std::invalid_argument(name_ + ": subnet id below 1");
  const int n = x.dim(0);
  const Assignment& in = *in_assign_;
  // A level above every assigned subnet adds no unit and no column.
  int top = 1;
  for (const int s : is_head_ ? in : *out_assign_) top = std::max(top, s);
  top = std::min(top, to);
  // A step's units and a cold pass's are the same blocks through the same
  // dispatcher, so each unit's sum is one sequence whichever pass computes
  // it: terms in ascending column order, starting from the unit's value in
  // y (+0 for a joining unit, masked when y was produced).
  for (int k = is_head_ ? top : from + 1; k <= top; ++k) {
    const std::vector<std::uint8_t>& rows = step_flags(k - 1, k);
    const int bu = static_cast<int>(std::count(rows.begin(), rows.end(), 1));
    if (bu == 0) continue;
    block_in_units_.clear();
    for (std::size_t c = 0; c < in.size(); ++c) {
      if (in[c] <= k) block_in_units_.push_back(static_cast<int>(c));
    }
    const int bc = static_cast<int>(block_in_units_.size()) * col_group_;
    ArenaScope ws;
    const float* xb = x.data();
    if (bc != cols_) {
      const std::size_t group_bytes =
          sizeof(float) * static_cast<std::size_t>(col_group_);
      float* g = ws.alloc_floats(static_cast<std::size_t>(n) * bc);
      for (int i = 0; i < n; ++i) {
        const float* xi = x.data() + static_cast<std::int64_t>(i) * cols_;
        float* d = g + static_cast<std::int64_t>(i) * bc;
        for (const int in_unit : block_in_units_) {
          std::memcpy(d, xi + static_cast<std::int64_t>(in_unit) * col_group_,
                      group_bytes);
          d += col_group_;
        }
      }
      xb = g;
    }
    // Rows outside the block are zeroed, not skipped: the blocked GEMM
    // packs every row of its operand.
    float* wb = ws.alloc_floats(static_cast<std::size_t>(units_) * bc);
    if (bu != units_) {
      std::fill(wb, wb + static_cast<std::size_t>(units_) * bc, 0.0f);
    }
    gather_weights(rows.data(), &block_in_units_, wb);
    gemm_nt_cols_bias(xb, wb, y.data(), n, bc, units_, rows.data(),
                      bias_.value.data(), relu);
  }
}

}  // namespace stepping
