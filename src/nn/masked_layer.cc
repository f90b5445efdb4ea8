#include "nn/masked_layer.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/arena.h"

namespace stepping {

MaskedLayer::MaskedLayer() : out_assign_(std::make_shared<Assignment>()) {}

MaskedLayer::MaskedLayer(const MaskedLayer& other)
    : Layer(other),
      units_(other.units_),
      cols_(other.cols_),
      col_group_(other.col_group_),
      macs_per_weight_(other.macs_per_weight_),
      is_head_(other.is_head_),
      weight_(other.weight_),
      bias_(other.bias_),
      out_assign_(std::make_shared<Assignment>(*other.out_assign_)),
      in_assign_(other.in_assign_),  // re-linked by Network::wire()
      prune_mask_(other.prune_mask_),
      w_eff_(other.w_eff_),
      imp_acc_(other.imp_acc_) {
  // LR-scale caches point into the layer; rebuild on demand in the clone.
  weight_.elem_lr_scale = nullptr;
  bias_.elem_lr_scale = nullptr;
}

void MaskedLayer::init_structure(int units, int cols, int col_group,
                                 std::int64_t macs_per_weight,
                                 AssignmentPtr in_assign, Rng& rng, int fan_in) {
  assert(units > 0 && cols > 0 && col_group > 0);
  const bool first_wire = (units_ == 0);
  units_ = units;
  cols_ = cols;
  col_group_ = col_group;
  macs_per_weight_ = macs_per_weight;
  in_assign_ = std::move(in_assign);
  if (first_wire) {
    out_assign_->assign(static_cast<std::size_t>(units), 1);
    prune_mask_.assign(static_cast<std::size_t>(units) * cols, 1);
    weight_.value = Tensor({units, cols});
    fill_kaiming_normal(weight_.value, fan_in, rng);
    weight_.apply_decay = true;
    bias_.value = Tensor({units});
    bias_.apply_decay = false;
    reset_importance(1);
  } else {
    // Re-wire (e.g. after clone): shapes must match.
    assert(weight_.value.dim(0) == units && weight_.value.dim(1) == cols);
  }
}

void MaskedLayer::set_unit_subnet(int unit, int subnet) {
  assert(unit >= 0 && unit < units_ && subnet >= 1);
  (*out_assign_)[static_cast<std::size_t>(unit)] = subnet;
}

bool MaskedLayer::structurally_active(int unit, int col) const {
  if (is_head_) return true;
  const int su = (*in_assign_)[static_cast<std::size_t>(in_unit_of(unit, col))];
  const int sv = (*out_assign_)[static_cast<std::size_t>(unit)];
  return su <= sv;
}

void MaskedLayer::apply_magnitude_prune(float threshold) {
  const float* w = weight_.value.data();
  const std::size_t n = prune_mask_.size();
  for (std::size_t i = 0; i < n; ++i) {
    prune_mask_[i] = std::fabs(w[i]) >= threshold ? 1 : 0;
  }
}

void MaskedLayer::revive_unit_row(int unit) {
  assert(unit >= 0 && unit < units_);
  std::memset(prune_mask_.data() + static_cast<std::size_t>(unit) * cols_, 1,
              static_cast<std::size_t>(cols_));
}

void MaskedLayer::revive_in_unit_cols(int in_unit) {
  const int lo = in_unit * col_group_;
  const int hi = lo + col_group_;
  assert(lo >= 0 && hi <= cols_);
  for (int u = 0; u < units_; ++u) {
    std::uint8_t* row = prune_mask_.data() + static_cast<std::size_t>(u) * cols_;
    std::memset(row + lo, 1, static_cast<std::size_t>(hi - lo));
  }
}

void MaskedLayer::clear_prune_mask() {
  std::fill(prune_mask_.begin(), prune_mask_.end(), std::uint8_t{1});
}

void MaskedLayer::set_prune_mask(const std::vector<std::uint8_t>& mask) {
  assert(mask.size() == prune_mask_.size());
  prune_mask_ = mask;
}

std::int64_t MaskedLayer::step_weights(int from, int to) const {
  std::int64_t count = 0;
  const int groups = cols_ / col_group_;
  for (int u = 0; u < units_; ++u) {
    // A head unit reads every producer present in subnet `to`.
    const int sv = is_head_ ? to : (*out_assign_)[static_cast<std::size_t>(u)];
    if (!is_head_ && (sv <= from || sv > to)) continue;
    const std::uint8_t* keep =
        prune_mask_.data() + static_cast<std::size_t>(u) * cols_;
    for (int j = 0; j < groups; ++j, keep += col_group_) {
      // The structural rule once per (unit, group), as gather_weights
      // applies it; then the group's kept prune-mask bytes.
      if ((*in_assign_)[static_cast<std::size_t>(in_unit_of(u, j * col_group_))] >
          sv) {
        continue;
      }
      for (int t = 0; t < col_group_; ++t) count += keep[t] != 0;
    }
  }
  return count;
}

std::int64_t MaskedLayer::move_delta_macs(int unit,
                                          const MaskedLayer* consumer) const {
  const int sv = (*out_assign_)[static_cast<std::size_t>(unit)];
  std::int64_t removed = 0;
  // Incoming synapses leave subnet sv together with the unit.
  const std::uint8_t* prow =
      prune_mask_.data() + static_cast<std::size_t>(unit) * cols_;
  for (int c = 0; c < cols_; ++c) {
    if (!prow[c]) continue;
    const int su = (*in_assign_)[static_cast<std::size_t>(in_unit_of(unit, c))];
    if (su <= sv) removed += macs_per_weight_;
  }
  // Outgoing synapses into consumer units that stay in subnets <= sv become
  // structurally inactive; head consumers always read every active producer,
  // so the head loses this unit's columns from subnet sv (it regains them in
  // subnet sv+1).
  if (consumer != nullptr) {
    for (int v = 0; v < consumer->num_units(); ++v) {
      if (!consumer->is_head()) {
        // Only synapses into units of exactly subnet sv were active in
        // subnet sv before the move (s(u) <= s(w) <= sv forces s(w) == sv);
        // synapses into smaller subnets were already blocked structurally.
        const int s_cons = consumer->unit_subnet()[static_cast<std::size_t>(v)];
        if (s_cons != sv) continue;
      }
      const std::uint8_t* crow =
          consumer->prune_mask().data() +
          static_cast<std::size_t>(v) * consumer->num_cols();
      for (int c = 0; c < consumer->num_cols(); ++c) {
        if (consumer->in_unit_of(v, c) != unit) continue;
        if (crow[c]) removed += consumer->macs_per_weight();
      }
    }
  }
  return removed;
}

void MaskedLayer::reset_importance(int num_subnets) {
  imp_acc_.assign(static_cast<std::size_t>(num_subnets),
                  std::vector<double>(static_cast<std::size_t>(units_), 0.0));
}

void MaskedLayer::prepare_lr_suppression(int num_subnets, double beta) {
  lr_scale_.assign(static_cast<std::size_t>(num_subnets), {});
  bias_lr_scale_.assign(static_cast<std::size_t>(num_subnets), {});
  for (int k = 1; k <= num_subnets; ++k) {
    auto& ws = lr_scale_[static_cast<std::size_t>(k - 1)];
    auto& bs = bias_lr_scale_[static_cast<std::size_t>(k - 1)];
    ws.assign(static_cast<std::size_t>(units_) * cols_, 1.0f);
    bs.assign(static_cast<std::size_t>(units_), 1.0f);
    for (int u = 0; u < units_; ++u) {
      const int s_out = is_head_ ? 1 : (*out_assign_)[static_cast<std::size_t>(u)];
      if (!is_head_) {
        const float row_scale =
            s_out < k ? static_cast<float>(std::pow(beta, k - s_out)) : 1.0f;
        bs[static_cast<std::size_t>(u)] = row_scale;
        float* wrow = ws.data() + static_cast<std::size_t>(u) * cols_;
        for (int c = 0; c < cols_; ++c) wrow[c] = row_scale;
      } else {
        // Head weights are owned by the subnet of their input unit.
        float* wrow = ws.data() + static_cast<std::size_t>(u) * cols_;
        for (int c = 0; c < cols_; ++c) {
          const int su =
              (*in_assign_)[static_cast<std::size_t>(in_unit_of(u, c))];
          wrow[c] = su < k ? static_cast<float>(std::pow(beta, k - su)) : 1.0f;
        }
      }
    }
  }
}

void MaskedLayer::activate_lr_scale(int k) {
  if (k <= 0 || lr_scale_.empty()) {
    weight_.elem_lr_scale = nullptr;
    bias_.elem_lr_scale = nullptr;
    return;
  }
  assert(k <= static_cast<int>(lr_scale_.size()));
  weight_.elem_lr_scale = &lr_scale_[static_cast<std::size_t>(k - 1)];
  bias_.elem_lr_scale = &bias_lr_scale_[static_cast<std::size_t>(k - 1)];
}

void MaskedLayer::gather_weights(const unsigned char* rows,
                                 const std::vector<int>* groups,
                                 float* dst) const {
  const int num_groups =
      groups != nullptr ? static_cast<int>(groups->size()) : cols_ / col_group_;
  const std::size_t ld = static_cast<std::size_t>(num_groups) * col_group_;
  const float* w = weight_.value.data();
  for (int u = 0; u < units_; ++u) {
    if (rows != nullptr && rows[u] == 0) continue;
    const int sv = (*out_assign_)[static_cast<std::size_t>(u)];
    const std::size_t row = static_cast<std::size_t>(u) * cols_;
    float* d = dst + static_cast<std::size_t>(u) * ld;
    for (int j = 0; j < num_groups; ++j, d += col_group_) {
      const int c0 =
          (groups != nullptr ? (*groups)[static_cast<std::size_t>(j)] : j) *
          col_group_;
      if (!is_head_ &&
          (*in_assign_)[static_cast<std::size_t>(in_unit_of(u, c0))] > sv) {
        std::fill(d, d + col_group_, 0.0f);  // structural rule: s(in) > s(v)
        continue;
      }
      const float* src = w + row + c0;
      const std::uint8_t* keep = prune_mask_.data() + row + c0;
      for (int t = 0; t < col_group_; ++t) d[t] = keep[t] ? src[t] : 0.0f;
    }
  }
}

const Tensor& MaskedLayer::effective_weights() {
  // The pack-cache identity must only change when the bytes do: the fresh
  // matrix is gathered into scratch and byte-compared with the previous one
  // (so ±0 and NaN payloads count as changes — exactly what a packed-byte
  // cache cares about), and a fresh pack_id is drawn when anything differed.
  // (The ISA tier is NOT part of this identity — panel layout varies with
  // the tier's NR, so the pack cache folds the active tier into its own key
  // and flushes on set_isa_tier; pack_id only names the weight bytes.) The
  // per-Param version counter (SGD::step, deserialization) is folded in as
  // belt-and-braces for writers that mutate the value tensor in place
  // without changing any bit we could see mid-race.
  const bool shape_change = w_eff_.shape() != weight_.value.shape();
  if (shape_change) w_eff_ = Tensor(weight_.value.shape());
  const std::size_t bytes = sizeof(float) * static_cast<std::size_t>(w_eff_.numel());
  ArenaScope ws;
  float* fresh = ws.alloc_floats(static_cast<std::size_t>(w_eff_.numel()));
  gather_weights(nullptr, nullptr, fresh);
  const bool changed = std::memcmp(fresh, w_eff_.data(), bytes) != 0;
  if (changed) std::memcpy(w_eff_.data(), fresh, bytes);
  if (shape_change || changed || pack_id_ == 0 ||
      seen_weight_version_ != weight_.version) {
    pack_id_ = new_pack_id();
  }
  seen_weight_version_ = weight_.version;
  return w_eff_;
}

const std::vector<int>& MaskedLayer::readable_in_units(int subnet_id) {
  readable_.clear();
  const Assignment& in = *in_assign_;
  for (std::size_t c = 0; c < in.size(); ++c) {
    if (is_head_ || in[c] <= subnet_id) readable_.push_back(static_cast<int>(c));
  }
  return readable_;
}

quant::PreparedInt8 MaskedLayer::int8_operand(int subnet_id) {
  const Tensor& w = effective_weights();  // refreshes pack_id()
  int8_units_.clear();
  for (int u = 0; u < units_; ++u) {
    if (is_head_ || (*out_assign_)[static_cast<std::size_t>(u)] <= subnet_id) {
      int8_units_.push_back(u);
    }
  }
  return quant::prepare_int8_weights(pack_id_, w.data(), cols_, col_group_,
                                     int8_units_,
                                     readable_in_units(subnet_id));
}

const std::vector<std::uint8_t>& MaskedLayer::step_flags(int from, int to) {
  step_flags_.assign(static_cast<std::size_t>(units_), 1);
  if (!is_head_) {
    for (int u = 0; u < units_; ++u) {
      const int sv = (*out_assign_)[static_cast<std::size_t>(u)];
      if (sv <= from || sv > to) step_flags_[static_cast<std::size_t>(u)] = 0;
    }
  }
  return step_flags_;
}

void MaskedLayer::mask_inactive_grad_rows(Tensor& grad, int per_unit,
                                          const SubnetContext& ctx) const {
  if (is_head_) return;
  mask_inactive_units(grad, *out_assign_, per_unit, ctx.subnet_id);
}

void MaskedLayer::harvest_importance(const Tensor& grad_preact,
                                     const Tensor& preact,
                                     const SubnetContext& ctx, int per_unit) {
  const int k = ctx.subnet_id;
  if (k < 1 || k > static_cast<int>(imp_acc_.size())) return;
  auto& acc = imp_acc_[static_cast<std::size_t>(k - 1)];
  const std::int64_t n = grad_preact.numel();
  assert(preact.numel() == n);
  const std::int64_t batch_stride = static_cast<std::int64_t>(units_) * per_unit;
  const std::int64_t batches = n / batch_stride;
  const float* g = grad_preact.data();
  const float* p = preact.data();
  const float* b = bias_.value.data();
  for (int u = 0; u < units_; ++u) {
    const int sv = is_head_ ? 1 : (*out_assign_)[static_cast<std::size_t>(u)];
    if (sv > k) continue;
    double dldr = 0.0;
    const float bu = b[u];
    for (std::int64_t bi = 0; bi < batches; ++bi) {
      const std::int64_t base =
          bi * batch_stride + static_cast<std::int64_t>(u) * per_unit;
      for (int i = 0; i < per_unit; ++i) {
        dldr += static_cast<double>(g[base + i]) *
                (static_cast<double>(p[base + i]) - bu);
      }
    }
    acc[static_cast<std::size_t>(u)] += std::fabs(dldr);
  }
}

// Free function from layer.h.
void mask_inactive_units(Tensor& t, const Assignment& assignment,
                         int features_per_unit, int subnet_id) {
  const int units = static_cast<int>(assignment.size());
  if (units == 0) return;
  const std::int64_t per_unit =
      t.rank() == 4
          ? static_cast<std::int64_t>(t.dim(2)) * t.dim(3) * features_per_unit
          : features_per_unit;
  const std::int64_t unit_stride = per_unit;
  const std::int64_t batch_stride = unit_stride * units;
  const std::int64_t batches = t.numel() / batch_stride;
  assert(batches * batch_stride == t.numel());
  float* p = t.data();
  for (int u = 0; u < units; ++u) {
    if (assignment[static_cast<std::size_t>(u)] <= subnet_id) continue;
    for (std::int64_t b = 0; b < batches; ++b) {
      float* dst = p + b * batch_stride + static_cast<std::int64_t>(u) * unit_stride;
      std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(per_unit));
    }
  }
}

}  // namespace stepping
