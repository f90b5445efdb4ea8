#include "nn/network.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "obs/trace.h"
#include "quant/calibration.h"

namespace stepping {

void Network::wire(int in_c, int in_h, int in_w, Rng& rng) {
  if (layers_.empty()) throw std::logic_error("Network::wire: no layers");
  in_c_ = in_c;
  in_h_ = in_h;
  in_w_ = in_w;
  if (!input_assign_) {
    // Image channels belong to subnet 1: available to every subnet.
    input_assign_ = std::make_shared<Assignment>(static_cast<std::size_t>(in_c), 1);
  }
  IOSpec spec;
  spec.units = in_c;
  spec.features_per_unit = 1;
  spec.h = in_h;
  spec.w = in_w;
  spec.flat = false;
  spec.assignment = input_assign_;

  MaskedLayer* last_masked = nullptr;
  for (auto& layer : layers_) {
    spec = layer->wire(spec, rng);
    layer->set_out_spec(spec);
    if (auto* m = dynamic_cast<MaskedLayer*>(layer.get())) last_masked = m;
  }
  if (last_masked == nullptr) {
    throw std::logic_error("Network::wire: no masked (trainable) layer");
  }
  if (!wired_) last_masked->set_head(true);
  stages_ = partition_stages(layer_ptrs());
  wired_ = true;
}

Tensor Network::forward(const Tensor& x, const SubnetContext& ctx) {
  assert(wired_);
  Tensor cur = stages_.front().forward(x, ctx);
  for (std::size_t i = 1; i < stages_.size(); ++i) cur = stages_[i].forward(cur, ctx);
  return cur;
}

Tensor Network::backward(const Tensor& grad_logits, const SubnetContext& ctx) {
  assert(wired_);
  Tensor cur = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur, ctx);
  }
  return cur;
}

std::vector<Param*> Network::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) out.push_back(p);
  }
  return out;
}

void Network::zero_grads() {
  for (Param* p : params()) p->zero_grad();
}

std::vector<Layer*> Network::layer_ptrs() {
  std::vector<Layer*> out;
  out.reserve(layers_.size());
  for (auto& l : layers_) out.push_back(l.get());
  return out;
}

std::vector<MaskedLayer*> Network::masked_layers() {
  std::vector<MaskedLayer*> out;
  for (auto& layer : layers_) {
    if (auto* m = dynamic_cast<MaskedLayer*>(layer.get())) out.push_back(m);
  }
  return out;
}

std::vector<MaskedLayer*> Network::body_layers() {
  std::vector<MaskedLayer*> out;
  for (MaskedLayer* m : masked_layers()) {
    if (!m->is_head()) out.push_back(m);
  }
  return out;
}

MaskedLayer* Network::consumer_of(const MaskedLayer* layer) {
  const auto all = masked_layers();
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    if (all[i] == layer) return all[i + 1];
  }
  return nullptr;
}

Network Network::clone() const {
  assert(wired_);
  Network copy;
  for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
  // Preserve head flag through rewire: the clone's wire() would set it for a
  // fresh network, but cloned layers keep is_head_ already; mark wired state
  // by rewiring, which re-links assignment pointers through the clone.
  Rng dummy(0);
  copy.wire(in_c_, in_h_, in_w_, dummy);
  return copy;
}

int Network::num_classes() {
  const auto all = masked_layers();
  assert(!all.empty());
  return all.back()->num_units();
}

void Network::reset_importance(int num_subnets) {
  for (MaskedLayer* m : masked_layers()) m->reset_importance(num_subnets);
}

void Network::prepare_lr_suppression(int num_subnets, double beta) {
  for (auto& layer : layers_) layer->prepare_lr_suppression(num_subnets, beta);
}

void Network::activate_lr_scale(int k) {
  for (auto& layer : layers_) layer->activate_lr_scale(k);
}

void Network::clear_prune_masks() {
  for (MaskedLayer* m : masked_layers()) m->clear_prune_mask();
}

std::shared_ptr<quant::CalibrationTable> calibrate_int8(Network& net,
                                                        const Tensor& inputs,
                                                        int batch,
                                                        int max_level) {
  assert(net.wired());
  assert(inputs.rank() == 4);
  STEPPING_TRACE_SCOPE_CAT("serve", "quant.calibrate");
  auto table = std::make_shared<quant::CalibrationTable>();
  const int n = inputs.dim(0);
  const int c = inputs.dim(1), h = inputs.dim(2), w = inputs.dim(3);
  const std::int64_t img = static_cast<std::int64_t>(c) * h * w;
  if (batch <= 0) batch = 1;
  for (int level = 1; level <= max_level; ++level) {
    SubnetContext ctx;
    ctx.subnet_id = level;
    ctx.num_subnets = max_level;
    ctx.calib_record = table.get();
    for (int i0 = 0; i0 < n; i0 += batch) {
      const int bn = std::min(batch, n - i0);
      Tensor xb({bn, c, h, w});
      std::memcpy(xb.data(), inputs.data() + i0 * img,
                  sizeof(float) * static_cast<std::size_t>(bn) * img);
      net.forward(xb, ctx);
    }
  }
  return table;
}

}  // namespace stepping
