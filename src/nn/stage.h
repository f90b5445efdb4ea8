// Inference stages: the unit in which fp32 inference runs a Network.
//
// Network::wire() partitions the layers into stages. A conv stage is a
// Conv2d with the BatchNorm2d, ReLU and MaxPool2d that directly follow it,
// each optional but in that order, and at least one of them present; a
// dense stage is a Dense with the ReLU after it; every other layer is a
// stage of its own. At fp32 inference a conv stage is one conv2d_implicit
// pass whose epilogue (tensor/ops.h ConvEpilogue) takes each computed row
// through BN, ReLU and the pool before write-back, so only the stage's
// output — the pooled plane — is ever written: every active unit from
// scratch, only the joining units on a ladder step, and only the whole
// pool windows over a dirty rectangle on a stream delta. A dense stage is
// one GEMM per joining subnet block (nn/dense.h) with the ReLU in its
// store. Training, int8 and calibration passes, and a stage whose conv or
// dense is the head, walk the stage's layers one by one instead.
//
// Either way a stage's output is bitwise the output of its last layer in a
// layer-by-layer walk, on every ISA tier and thread count: the epilogue
// applies each layer's own per-element expression in the layer's order
// (pinned by tests/fused_stage_test.cc). The per-layer forward,
// forward_step and forward_delta hooks stay that walk's oracle.
//
// Network::forward, ladder_step and advance (core/incremental.h) run every
// inference pass stage by stage, so a ladder state keeps one output per
// stage; the entries of the layers inside a stage stay empty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace stepping {

class BatchNorm2d;
class Conv2d;
class Dense;
class MaskedLayer;

class Stage {
 public:
  /// The stage of layers [first, first + layers.size()) of a network.
  Stage(std::size_t first, std::vector<Layer*> layers);

  /// Index of the stage's first and last layer in the network.
  std::size_t first() const { return first_; }
  std::size_t last() const { return first_ + layers_.size() - 1; }
  const std::vector<Layer*>& layers() const { return layers_; }

  /// The stage's masked layer (its first layer), or null.
  MaskedLayer* masked() const { return masked_; }

  /// Shape and assignment of the stage's output: its last layer's.
  const IOSpec& out_spec() const { return layers_.back()->out_spec(); }

  /// The stage's output for input x.
  Tensor forward(const Tensor& x, const SubnetContext& ctx) const;

  /// Layer::forward_step for the stage: `cached` is the stage's output at
  /// subnet `from` on the same input; only the units joining in
  /// (from, ctx.subnet_id] are computed.
  Tensor forward_step(const Tensor& x, const Tensor& cached, int from,
                      const SubnetContext& ctx) const;

  /// Layer::propagate_dirty_region through every layer of the stage,
  /// clipped to each layer's output plane.
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const;

  /// True when forward_delta saves compute: a fused conv stage, or a
  /// single layer whose own forward_delta does.
  bool supports_spatial_delta() const;

  /// Layer::forward_delta for the stage, per image: recomputes only each
  /// image's region of the stage's output (from propagate_dirty_region),
  /// reusing `cached` — its output for each previous input at the same
  /// level — elsewhere. `out_regions` holds one region per image of x, or
  /// one that every image uses; an image whose region is empty keeps its
  /// cached output. `cached` is taken by value so a caller that moves it in
  /// pays no copy.
  Tensor forward_delta(const Tensor& x, Tensor cached,
                       std::span<const SpatialRegion> out_regions,
                       const SubnetContext& ctx) const;

  /// Analytic MACs forward_delta(out_region) executes at subnet `level`:
  /// the active weights times the conv positions it recomputes (whole pool
  /// windows in a fused stage).
  std::int64_t delta_macs(const SpatialRegion& out_region, int level) const;

 private:
  /// True when this pass runs as one fused call.
  bool runs_fused(const SubnetContext& ctx) const;
  /// The fused conv pass over the units flagged in `rows`, at the conv
  /// output positions of each image's region (one per image, or one for
  /// every image), into the stage output y.
  void run_conv(const Tensor& x, const unsigned char* rows, int level,
                std::span<const SpatialRegion> conv_regions, float* y) const;
  /// The conv output positions under stage output region `out`.
  SpatialRegion conv_region(const SpatialRegion& out) const;

  std::size_t first_;
  std::vector<Layer*> layers_;
  MaskedLayer* masked_;        ///< layers_[0] if it is masked, else null
  Conv2d* conv_ = nullptr;     ///< set for a conv stage, fused or alone
  Dense* dense_ = nullptr;     ///< set for a dense stage
  BatchNorm2d* bn_ = nullptr;  ///< the conv stage's BN, if any
  bool relu_ = false;
  int pool_ = 1;  ///< the conv stage's max-pool window; 1 = none
};

/// Partition a network's layers into stages, in order (see above).
std::vector<Stage> partition_stages(const std::vector<Layer*>& layers);

}  // namespace stepping
