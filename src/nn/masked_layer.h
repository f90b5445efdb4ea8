// Base class for layers whose output units carry subnet assignments
// (Conv2d filters, Dense neurons) — the substrate of SteppingNet's subnet
// masking engine.
//
// Weight layout: a 2-D (units x cols) matrix, unit-major. For Conv2d,
// cols = in_units * kernel^2 grouped per input unit; for Dense,
// cols = in_features grouped per input unit by features_per_unit.
//
// Three masks compose into the effective weights used by forward:
//  * structural mask  — synapse u->v active iff s(u) <= s(v) (head layers
//    are exempt: the classifier is recomputed for every subnet);
//  * prune mask       — unstructured magnitude pruning, non-permanent: the
//    underlying weight keeps receiving gradient updates and revives when its
//    unit moves (paper §III-A1);
//  * subnet selection — units with s(v) > subnet_id are not computed (their
//    output rows stay zero).
// gather_weights() applies the first two for any subset of rows and input
// units; effective_weights() is its full-matrix form.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "nn/param.h"
#include "quant/prepared.h"

namespace stepping {

class MaskedLayer : public Layer {
 public:
  MaskedLayer();
  MaskedLayer(const MaskedLayer& other);           // deep-copies assignment
  MaskedLayer& operator=(const MaskedLayer&) = delete;

  // ---- structure ---------------------------------------------------------
  int num_units() const { return units_; }
  int num_cols() const { return cols_; }

  const Assignment& unit_subnet() const { return *out_assign_; }
  const Assignment& in_subnet() const { return *in_assign_; }

  /// Move a unit to another subnet (construction only); synapse revival is
  /// handled by the caller (core::Mover).
  void set_unit_subnet(int unit, int subnet);

  /// Subnet id of the input unit feeding weight column `col`.
  int in_unit_of_col(int col) const { return col / col_group_; }

  /// Input unit feeding weight (unit, col). Fully-connected layers ignore
  /// `unit` (column group determines the producer); depthwise layers
  /// override — their unit u reads only input unit u.
  virtual int in_unit_of(int unit, int col) const {
    (void)unit;
    return in_unit_of_col(col);
  }

  /// Number of consecutive weight columns per input unit.
  int col_group() const { return col_group_; }

  /// Head layers (the final classifier) are exempt from the structural rule
  /// and recomputed for every subnet.
  bool is_head() const { return is_head_; }
  void set_head(bool head) { is_head_ = head; }

  /// True iff weight (unit, col) is allowed by the structural rule.
  bool structurally_active(int unit, int col) const;

  // ---- pruning -----------------------------------------------------------
  const std::vector<std::uint8_t>& prune_mask() const { return prune_mask_; }
  /// Re-derive the prune mask from weight magnitudes: keep |w| >= threshold.
  /// Masks are non-permanent (recomputed each construction iteration).
  void apply_magnitude_prune(float threshold);
  /// Clear pruning for one unit's incoming synapses (revival on move).
  void revive_unit_row(int unit);
  /// Clear pruning for the columns fed by input unit `in_unit` (revival of a
  /// moved producer's outgoing synapses).
  virtual void revive_in_unit_cols(int in_unit);

  /// Whether the mover may reassign this layer's units. Depthwise layers
  /// return false: their units mirror their producer's assignment (shared
  /// storage) and move implicitly with it.
  virtual bool units_movable() const { return true; }
  void clear_prune_mask();
  /// Replace the whole prune mask (deserialization). Size must match.
  void set_prune_mask(const std::vector<std::uint8_t>& mask);

  // ---- MAC accounting ----------------------------------------------------
  /// MAC operations contributed by one active weight (conv: out_h*out_w).
  std::int64_t macs_per_weight() const { return macs_per_weight_; }
  /// Active (structural && unpruned) weights of this layer in subnet `id`.
  std::int64_t active_weights(int subnet_id) const {
    return step_weights(0, subnet_id);
  }
  /// Active weights, in subnet `to`, of the units joining between subnets
  /// `from` and `to` (from < s(u) <= to): what a ladder step from `from`
  /// to `to` computes. A head is recomputed whole, so every unit counts.
  /// Costs one structural test per (unit, column group), not per weight.
  std::int64_t step_weights(int from, int to) const;
  /// MACs of this layer in subnet `id`.
  std::int64_t subnet_macs(int subnet_id) const {
    return active_weights(subnet_id) * macs_per_weight();
  }
  /// MACs with every weight active (the unpruned full network).
  std::int64_t full_macs() const {
    return static_cast<std::int64_t>(units_) * cols_ * macs_per_weight();
  }
  /// MACs that leave subnet `s(unit)` if `unit` moves up by one: its active
  /// incoming weights plus its outgoing weights into units of subnets
  /// <= s(unit) in `consumer` (nullptr if this is the last masked layer).
  std::int64_t move_delta_macs(int unit, const MaskedLayer* consumer) const;

  // ---- importance (paper Eq. 2/3) ----------------------------------------
  /// Reset accumulators for `num_subnets` cost functions.
  void reset_importance(int num_subnets);
  /// Accumulated |dL_k/dr_j|; index [k-1][unit].
  const std::vector<std::vector<double>>& importance() const { return imp_acc_; }

  // ---- LR suppression (paper beta^(k-o)) ----------------------------------
  /// Precompute per-element LR scales for training each subnet k in
  /// 1..num_subnets. Owner of a weight: s(out unit) for body layers,
  /// s(in unit) for the head. Call after each structural change.
  void prepare_lr_suppression(int num_subnets, double beta) override;
  /// Point the params' elem_lr_scale at the buffer for subnet k (0 disables).
  void activate_lr_scale(int k) override;

  // ---- params ------------------------------------------------------------
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }
  std::vector<Param*> params() override { return {&weight_, &bias_}; }

  /// Effective weights (value x structural mask x prune mask), the full
  /// units x cols matrix, rewritten from the live weights on every call:
  /// weight values change on every optimizer step and masks during
  /// construction, and neither path can be trusted to invalidate a cache.
  /// The training forward, int8_operand() and every backward read it. The
  /// fp32 inference forwards gather only what they compute instead
  /// (gather_weights): a conv its rows over the input units they read, a
  /// Dense one subnet block at a time (nn/dense.h).
  const Tensor& effective_weights();

  /// Write the effective weights of the rows with rows[u] != 0 (every row if
  /// null), restricted to the column groups `groups` (ascending; every group
  /// if null), densely: row u lands at dst + u * ld, ld = number of groups x
  /// col_group(), its groups back to back in list order; other rows are not
  /// written. Group g holds columns [g, g + 1) x col_group(), so for Conv2d
  /// and Dense it is input unit g. The structural rule is applied once per
  /// (unit, group) and the prune mask per element.
  void gather_weights(const unsigned char* rows, const std::vector<int>* groups,
                      float* dst) const;

  /// Input units the executing subnet can read, ascending: those with
  /// s(in) <= subnet_id, or every input unit for a head. A unit of the
  /// subnet reads no other input unit (structural rule). Returns a scratch
  /// buffer valid until the next call.
  const std::vector<int>& readable_in_units(int subnet_id);

  /// Per-unit flags (1 = compute) of the units a ladder step from subnet
  /// `from` to subnet `to` computes: those with from < s(unit) <= to, or
  /// every unit of a head. step_flags(0, id) are the units subnet `id`
  /// computes from scratch. Returns a scratch buffer valid until the next
  /// call of this or active_flags().
  const std::vector<std::uint8_t>& step_flags(int from, int to);

 protected:
  /// Called by subclasses from wire(): sizes all masks/accumulators.
  /// `col_group` = columns per input unit; `macs_per_weight` as defined above.
  void init_structure(int units, int cols, int col_group,
                      std::int64_t macs_per_weight, AssignmentPtr in_assign,
                      Rng& rng, int fan_in);

  /// The compact int8 operand of subnet `subnet_id` (quant/prepared.h):
  /// the effective weights of the units it computes over the input units it
  /// reads, quantized per row and packed for the active provider. Built on
  /// every call. Conv2d and Dense run their int8 forwards on it.
  quant::PreparedInt8 int8_operand(int subnet_id);

  /// Per-unit activity flags for the executing subnet (1 = compute this
  /// unit): step_flags(0, subnet_id). Heads are always fully active.
  const std::vector<std::uint8_t>& active_flags(int subnet_id) {
    return step_flags(0, subnet_id);
  }

  /// Harvest dL/dr for all active units: imp[ctx.subnet][j] +=
  /// |sum(grad_preact_j * (preact_j - bias_j))| (paper Eq. 2).
  /// `per_unit` = scalars per unit in the two tensors (spatial size or 1),
  /// laid out (batch, units, per_unit).
  void harvest_importance(const Tensor& grad_preact, const Tensor& preact,
                          const SubnetContext& ctx, int per_unit);

  int units_ = 0;
  int cols_ = 0;
  int col_group_ = 1;
  std::int64_t macs_per_weight_ = 1;
  bool is_head_ = false;

  Param weight_;
  Param bias_;

  AssignmentPtr out_assign_;
  AssignmentPtr in_assign_;

  std::vector<std::uint8_t> prune_mask_;  // 1 = keep
  Tensor w_eff_;
  std::vector<std::uint8_t> step_flags_;  // scratch for step_flags()
  std::vector<int> readable_;             // scratch for readable_in_units()
  std::vector<int> int8_units_;           // scratch for int8_operand()

  std::vector<std::vector<double>> imp_acc_;

  // lr_scale_[k-1] has units_*cols_ entries for the weight; bias uses
  // bias_lr_scale_[k-1] with units_ entries.
  std::vector<std::vector<float>> lr_scale_;
  std::vector<std::vector<float>> bias_lr_scale_;
};

}  // namespace stepping
