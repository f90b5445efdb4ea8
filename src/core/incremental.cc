#include "core/incremental.h"

#include <cassert>
#include <cstring>

#include "core/macs.h"

namespace stepping {

namespace {

/// MACs a step from `from` to `to` executes in one masked layer: weights of
/// units newly added in (from, to], plus a full head recompute.
std::int64_t step_macs(const MaskedLayer& layer, int from, int to) {
  if (layer.is_head()) return layer.active_weights(to) * layer.macs_per_weight();
  std::int64_t count = 0;
  const auto& assign = layer.unit_subnet();
  const auto& in_assign = layer.in_subnet();
  const auto& prune = layer.prune_mask();
  for (int u = 0; u < layer.num_units(); ++u) {
    const int sv = assign[static_cast<std::size_t>(u)];
    if (sv <= from || sv > to) continue;
    const std::uint8_t* prow =
        prune.data() + static_cast<std::size_t>(u) * layer.num_cols();
    for (int c = 0; c < layer.num_cols(); ++c) {
      if (!prow[c]) continue;
      const int su = in_assign[static_cast<std::size_t>(layer.in_unit_of(u, c))];
      if (su <= sv) count += layer.macs_per_weight();
    }
  }
  return count;
}

/// 64-bit FNV-1a over the tensor bytes — the input fingerprint. One linear
/// pass, no retained copy (cf. the class comment on collision odds).
std::uint64_t fnv1a_bytes(const Tensor& x) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(x.data());
  const std::size_t n = sizeof(float) * static_cast<std::size_t>(x.numel());
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Tensor ladder_step(Network& net, const Tensor& x,
                   std::vector<Tensor>& layer_outputs, int from, int to) {
  assert(to >= 1 && from >= 0 && from <= to);
  SubnetContext ctx;
  ctx.subnet_id = to;
  ctx.training = false;

  const auto& layers = net.layers();
  if (layers.empty()) return x;
  layer_outputs.resize(layers.size());
  // Each layer reads its input in place from the previous layer's stored
  // output, and its own output is stored once (moved in, never copied).
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Tensor& in = i == 0 ? x : layer_outputs[i - 1];
    layer_outputs[i] =
        from == 0 ? layers[i]->forward(in, ctx)
                  : layers[i]->forward_step(in, layer_outputs[i], from, ctx);
  }
  return layer_outputs.back();
}

std::int64_t ladder_step_macs(Network& net, int from, int to) {
  std::int64_t total = 0;
  for (MaskedLayer* m : net.masked_layers()) total += step_macs(*m, from, to);
  return total;
}

IncrementalExecutor::IncrementalExecutor(Network& net) : net_(net) {
  layer_outputs_.resize(net_.layers().size());
}

void IncrementalExecutor::reset() {
  cached_subnet_ = 0;
  input_shape_.clear();
  input_hash_ = 0;
  for (auto& t : layer_outputs_) t = Tensor();
}

bool IncrementalExecutor::same_input(const Tensor& x) const {
  return input_shape_ == x.shape() && input_hash_ == fnv1a_bytes(x);
}

void IncrementalExecutor::remember_input(const Tensor& x) {
  input_shape_ = x.shape();
  input_hash_ = fnv1a_bytes(x);
}

Tensor IncrementalExecutor::run(const Tensor& x, int subnet_id) {
  assert(subnet_id >= 1);
  // Not thread-safe (see header): concurrent run() calls on one executor
  // corrupt the activation cache. This guard trips in debug/sanitizer
  // builds when two threads interleave.
  assert(!in_run_ && "IncrementalExecutor::run is not thread-safe");
  in_run_ = true;
  struct RunGuard {
    bool& flag;
    ~RunGuard() { flag = false; }
  } run_guard{in_run_};
  if (cached_subnet_ != 0 && subnet_id < cached_subnet_ && same_input(x)) {
    return step_down(x, subnet_id);
  }
  if (cached_subnet_ == 0 || subnet_id < cached_subnet_ || !same_input(x)) {
    reset();
  }
  const int from = cached_subnet_;

  // Analytic MAC accounting for this step vs a from-scratch evaluation.
  last_step_macs_ = ladder_step_macs(net_, from, subnet_id);
  last_full_macs_ = 0;
  for (MaskedLayer* m : net_.masked_layers()) {
    last_full_macs_ += m->subnet_macs(subnet_id);
  }

  Tensor cur = ladder_step(net_, x, layer_outputs_, from, subnet_id);
  remember_input(x);
  cached_subnet_ = subnet_id;
  return cur;
}

Tensor IncrementalExecutor::step_down(const Tensor& x, int subnet_id) {
  // Dynamic subnet REDUCTION (paper §II): every unit of the smaller subnet
  // was already evaluated — and, by the structural invariant, to exactly the
  // value the smaller subnet would compute. Masking the extra channels of
  // each cached output reconstructs the smaller subnet's intermediate state;
  // only the head must be recomputed.
  SubnetContext ctx;
  ctx.subnet_id = subnet_id;
  ctx.training = false;

  last_full_macs_ = 0;
  for (MaskedLayer* m : net_.masked_layers()) {
    last_full_macs_ += m->subnet_macs(subnet_id);
  }
  last_step_macs_ = net_.masked_layers().back()->subnet_macs(subnet_id);

  const auto& layers = net_.layers();
  MaskedLayer* head = net_.masked_layers().back();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].get() == static_cast<Layer*>(head)) {
      layer_outputs_[i] = head->forward(i == 0 ? x : layer_outputs_[i - 1], ctx);
    } else {
      const IOSpec& spec = layers[i]->out_spec();
      if (spec.assignment) {
        mask_inactive_units(layer_outputs_[i], *spec.assignment,
                            spec.features_per_unit, subnet_id);
      }
    }
  }
  cached_subnet_ = subnet_id;
  return layer_outputs_.back();
}

}  // namespace stepping
