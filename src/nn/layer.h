// Layer interface and subnet-aware wiring metadata.
//
// SteppingNet semantics implemented here (DESIGN.md §6):
//  * every "unit" (a neuron in a fully-connected layer or a filter in a
//    convolutional layer, following the paper's terminology) carries a
//    subnet assignment s(unit) in {1..N}: the smallest subnet containing it;
//  * a synapse u -> v is structurally active iff s(u) <= s(v), which makes a
//    unit's input set identical in every subnet that contains it — the key
//    invariant behind exact computational reuse;
//  * assignments are shared (std::shared_ptr) along the layer graph so that
//    moving a neuron during construction is a single in-place mutation seen
//    by producer and consumers alike.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "quant/policy.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace stepping {

namespace quant {
class CalibrationTable;
}  // namespace quant

class Param;

/// Per-unit subnet ids, 1-based. Input image channels use 1 (present in the
/// smallest subnet by definition).
using Assignment = std::vector<int>;
using AssignmentPtr = std::shared_ptr<Assignment>;

/// Which subnet a forward/backward pass executes, plus mode flags.
struct SubnetContext {
  /// 1-based subnet index; units with s(unit) > subnet_id are masked out.
  int subnet_id = 1;
  /// Total number of subnets in the current construction (>= subnet_id).
  int num_subnets = 1;
  /// Training mode (BatchNorm batch statistics, importance harvesting).
  bool training = false;
  /// Accumulate |dL/dr_j| importance gradients (paper Eq. 2) during backward.
  bool harvest_importance = false;
  /// Numeric precision of this forward (ISSUE 7). Layers run int8 only for
  /// kInt8 at inference with a calibrated entry in `calibration`; anything
  /// else is the bitwise-deterministic fp32 path. `steppingnet eval`, the
  /// benches and direct callers set it; serve::Server never does.
  quant::Precision precision = quant::Precision::kFp32;
  /// Activation scales for the int8 path, keyed (layer name, subnet level).
  /// Null => every layer falls back to fp32.
  const quant::CalibrationTable* calibration = nullptr;
  /// When non-null, this (fp32) forward is a calibration pass: quantizable
  /// layers record their input ranges here and still compute in fp32.
  quant::CalibrationTable* calib_record = nullptr;
};

/// Shape + subnet metadata flowing through Network::wire().
struct IOSpec {
  /// Number of units (channels for spatial tensors, features for flat ones).
  int units = 0;
  /// Scalars per unit presented to a downstream Dense layer (1 unless a
  /// Flatten collapsed an HxW plane into the feature axis).
  int features_per_unit = 1;
  /// Spatial extents; 0 when flat.
  int h = 0, w = 0;
  bool flat = false;
  /// Per-unit subnet assignment, shared with the producing layer.
  AssignmentPtr assignment;

  int total_features() const { return units * features_per_unit; }
};

/// Abstract layer with explicit forward/backward.
///
/// Lifecycle: construct with hyperparameters -> Network::wire() calls
/// wire(in, rng) exactly once per topology change (allocating parameters on
/// first wire, preserving them afterwards) -> forward/backward per batch.
///
/// Training and int8 passes run every layer through these hooks. fp32
/// inference runs them only for layers outside a fused stage (nn/stage.h):
/// a Conv2d -> BatchNorm2d -> ReLU -> MaxPool2d run, or a Dense -> ReLU
/// pair, is one call there. The per-layer forward, forward_step and
/// forward_delta stay the oracle a stage's output is pinned against.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Resolve shapes, allocate parameters (first call), capture the input
  /// assignment, and return the output spec.
  virtual IOSpec wire(const IOSpec& in, Rng& rng) = 0;

  virtual Tensor forward(const Tensor& x, const SubnetContext& ctx) = 0;

  /// Consume dL/d(output), return dL/d(input), accumulate parameter grads.
  virtual Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) = 0;

  /// Incremental step-up evaluation (inference only): given the full input
  /// `x` for subnet ctx.subnet_id and this layer's cached output `cached_y`
  /// from the already-evaluated subnet `from_subnet` (< ctx.subnet_id) on the
  /// same image, produce the output for ctx.subnet_id while reusing
  /// cached results where the reuse invariant guarantees equality.
  /// Default: plain recompute (correct for all layers).
  virtual Tensor forward_step(const Tensor& x, const Tensor& cached_y,
                              int from_subnet, const SubnetContext& ctx) {
    (void)cached_y;
    (void)from_subnet;
    return forward(x, ctx);
  }

  // ---- Streaming delta inference ----------------------------------------
  // A temporal stream presents near-duplicate inputs frame after frame.
  // advance() (core/incremental.h) tracks which spatial rectangle of the
  // CURRENT layer input differs from the previous frame and threads it
  // through these hooks: propagate_dirty_region() maps an input-plane dirty
  // rect to the output positions it can influence, and forward_delta()
  // recomputes ONLY those positions, splicing them into the cached previous-
  // frame output. Every spliced tensor is exact (the untouched elements read
  // only clean input, so their cached bits are what a full pass would
  // produce), which is why the default forward_delta can simply run the full
  // forward: its input is already bitwise-identical to a cold pass's.

  /// Map a dirty region of this layer's input plane to the output region the
  /// dirty values can reach. Must be CONSERVATIVE (may over-approximate,
  /// never under-approximate). The default — the whole output plane — is
  /// correct for any layer; locality-preserving layers override:
  /// elementwise layers (ReLU, inference BatchNorm) propagate the region
  /// unchanged, pooling divides it by the pool size, convolutions expand it
  /// by the receptive-field halo (conv_dirty_out_region).
  virtual SpatialRegion propagate_dirty_region(const SpatialRegion& in) const {
    (void)in;
    const IOSpec& s = out_spec();
    return SpatialRegion::full(s.h, s.w);
  }

  /// True when forward_delta() actually saves compute for a sub-plane
  /// region (today: non-head Conv2d). Layers answering false still take
  /// part in streaming via propagate_dirty_region(); advance() just runs
  /// their plain forward on the (exact) spliced input.
  virtual bool supports_spatial_delta() const { return false; }

  /// Recompute only `out_region` of this layer's output for the new input
  /// `x`, reusing `cached_y` — the layer's full output for the PREVIOUS
  /// frame at the same subnet level — everywhere else. `out_region` must
  /// come from propagate_dirty_region() of the input's dirty rect, and the
  /// result must be bitwise identical to forward(x, ctx). Inference only.
  virtual Tensor forward_delta(const Tensor& x, const Tensor& cached_y,
                               const SpatialRegion& out_region,
                               const SubnetContext& ctx) {
    (void)cached_y;
    (void)out_region;
    return forward(x, ctx);
  }

  virtual std::vector<Param*> params() { return {}; }

  /// Precompute per-element learning-rate suppression buffers for training
  /// each subnet k (paper §III-A2: scale beta^(k-o) for params owned by a
  /// smaller subnet o). No-op for parameterless layers.
  virtual void prepare_lr_suppression(int num_subnets, double beta) {
    (void)num_subnets;
    (void)beta;
  }

  /// Select the suppression buffer for subnet k (k <= 0 disables).
  virtual void activate_lr_scale(int k) { (void)k; }

  /// Deep copy (fresh assignment storage); Network::wire() re-links inputs.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Output spec recorded by Network::wire() (shape + governing assignment);
  /// consumers like the incremental executor use it to mask cached outputs.
  const IOSpec& out_spec() const { return out_spec_; }
  void set_out_spec(IOSpec spec) { out_spec_ = std::move(spec); }

 private:
  IOSpec out_spec_;
};

/// Zero all positions of `t` whose unit has s(unit) > subnet_id.
/// For rank-4 tensors a unit is a channel; for rank-2, a feature group of
/// `features_per_unit` consecutive columns.
void mask_inactive_units(Tensor& t, const Assignment& assignment,
                         int features_per_unit, int subnet_id);

}  // namespace stepping
