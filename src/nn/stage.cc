#include "nn/stage.h"

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"
#include "util/arena.h"

namespace stepping {

namespace {

/// True for an fp32 inference pass: not training, calibrating or int8.
bool fp32_inference(const SubnetContext& ctx) {
  return !ctx.training && ctx.calib_record == nullptr &&
         !(ctx.precision == quant::Precision::kInt8 && ctx.calibration != nullptr);
}

}  // namespace

Stage::Stage(std::size_t first, std::vector<Layer*> layers)
    : first_(first),
      layers_(std::move(layers)),
      masked_(dynamic_cast<MaskedLayer*>(layers_.front())) {
  if (layers_.size() == 1) {
    conv_ = dynamic_cast<Conv2d*>(layers_[0]);
    return;
  }
  if ((dense_ = dynamic_cast<Dense*>(layers_[0])) != nullptr) {
    assert(layers_.size() == 2 && dynamic_cast<ReLU*>(layers_[1]));
    return;
  }
  conv_ = dynamic_cast<Conv2d*>(layers_[0]);
  assert(conv_ != nullptr);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(layers_[i])) bn_ = bn;
    if (dynamic_cast<ReLU*>(layers_[i])) relu_ = true;
    if (auto* pool = dynamic_cast<MaxPool2d*>(layers_[i])) pool_ = pool->kernel();
  }
}

bool Stage::runs_fused(const SubnetContext& ctx) const {
  return layers_.size() > 1 && !masked_->is_head() && fp32_inference(ctx);
}

SpatialRegion Stage::conv_region(const SpatialRegion& out) const {
  return {out.r0 * pool_, out.r1 * pool_, out.c0 * pool_, out.c1 * pool_};
}

void Stage::run_conv(const Tensor& x, const unsigned char* rows, int level,
                     std::span<const SpatialRegion> regions, float* y) const {
  ConvEpilogue epi;
  epi.relu = relu_;
  epi.pool = pool_;
  ArenaScope ws;
  if (bn_ != nullptr) {
    float* inv_std = ws.alloc_floats(static_cast<std::size_t>(bn_->channels()));
    bn_->inference_inv_std(inv_std);
    epi.bn_mean = bn_->running_mean().data();
    epi.bn_inv_std = inv_std;
    epi.bn_gamma = bn_->gamma().data();
    epi.bn_beta = bn_->beta().data();
  }
  conv_->forward_rows(x, rows, level, regions, epi, y);
}

Tensor Stage::forward(const Tensor& x, const SubnetContext& ctx) const {
  if (!runs_fused(ctx)) {
    Tensor cur = layers_[0]->forward(x, ctx);
    for (std::size_t i = 1; i < layers_.size(); ++i) {
      cur = layers_[i]->forward(cur, ctx);
    }
    return cur;
  }
  if (dense_ != nullptr) return dense_->forward_relu(x, ctx);
  const IOSpec& s = out_spec();
  Tensor y({x.dim(0), s.units, s.h, s.w});  // inactive units stay zero
  const Conv2dGeometry& g = conv_->geometry();
  const SpatialRegion full = SpatialRegion::full(g.out_h(), g.out_w());
  run_conv(x, conv_->step_flags(0, ctx.subnet_id).data(), ctx.subnet_id,
           {&full, 1}, y.data());
  return y;
}

Tensor Stage::forward_step(const Tensor& x, const Tensor& cached, int from,
                           const SubnetContext& ctx) const {
  if (layers_.size() == 1) return layers_[0]->forward_step(x, cached, from, ctx);
  if (cached.empty() || !runs_fused(ctx)) return forward(x, ctx);
  // The reused units keep their cached outputs; the joining ones are zero
  // there (masked when it was produced) and are computed into place.
  Tensor y = cached;
  const int level = ctx.subnet_id;
  if (dense_ != nullptr) {
    dense_->forward_levels(x, from, level, /*relu=*/true, y);
  } else {
    const Conv2dGeometry& g = conv_->geometry();
    const SpatialRegion full = SpatialRegion::full(g.out_h(), g.out_w());
    run_conv(x, conv_->step_flags(from, level).data(), level, {&full, 1},
             y.data());
  }
  const IOSpec& s = out_spec();
  mask_inactive_units(y, *s.assignment, s.features_per_unit, level);
  return y;
}

SpatialRegion Stage::propagate_dirty_region(const SpatialRegion& in) const {
  SpatialRegion r = in;
  for (const Layer* l : layers_) {
    r = l->propagate_dirty_region(r).clipped(l->out_spec().h, l->out_spec().w);
  }
  return r;
}

bool Stage::supports_spatial_delta() const {
  if (layers_.size() == 1) return layers_[0]->supports_spatial_delta();
  return conv_ != nullptr && !conv_->is_head();
}

Tensor Stage::forward_delta(const Tensor& x, Tensor cached,
                            std::span<const SpatialRegion> out_regions,
                            const SubnetContext& ctx) const {
  // Anything but a body conv in an fp32 inference pass recomputes in full.
  if (conv_ == nullptr || conv_->is_head() || cached.empty() ||
      !fp32_inference(ctx)) {
    return forward(x, ctx);
  }
  const IOSpec& s = out_spec();
  std::vector<SpatialRegion> conv_regs;
  bool cover = true;
  for (const SpatialRegion& r : out_regions) {
    const SpatialRegion reg = r.clipped(s.h, s.w);
    cover = cover && reg.covers(s.h, s.w);
    conv_regs.push_back(conv_region(reg));
  }
  if (cover) return forward(x, ctx);
  // Clean windows keep the previous inputs' bits; each image's dirty ones
  // are recomputed in place (inactive units hold forward()'s zeros).
  run_conv(x, conv_->step_flags(0, ctx.subnet_id).data(), ctx.subnet_id,
           conv_regs, cached.data());
  return cached;
}

std::int64_t Stage::delta_macs(const SpatialRegion& out_region,
                               int level) const {
  if (masked_ == nullptr) return 0;
  const IOSpec& s = out_spec();
  return masked_->active_weights(level) *
         conv_region(out_region.clipped(s.h, s.w)).area();
}

namespace {

template <class T>
bool layer_is(const std::vector<Layer*>& layers, std::size_t i) {
  return i < layers.size() && dynamic_cast<T*>(layers[i]) != nullptr;
}

}  // namespace

std::vector<Stage> partition_stages(const std::vector<Layer*>& layers) {
  std::vector<Stage> stages;
  for (std::size_t i = 0; i < layers.size();) {
    std::size_t end = i + 1;
    if (layer_is<Conv2d>(layers, i)) {
      if (layer_is<BatchNorm2d>(layers, end)) ++end;
      if (layer_is<ReLU>(layers, end)) ++end;
      if (layer_is<MaxPool2d>(layers, end)) ++end;
    } else if (layer_is<Dense>(layers, i) && layer_is<ReLU>(layers, end)) {
      ++end;
    }
    const auto at = [&](std::size_t k) {
      return layers.begin() + static_cast<std::ptrdiff_t>(k);
    };
    stages.emplace_back(i, std::vector<Layer*>(at(i), at(end)));
    i = end;
  }
  return stages;
}

}  // namespace stepping
