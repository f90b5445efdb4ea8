// Sequential network container with subnet-aware wiring.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/masked_layer.h"
#include "nn/stage.h"

namespace stepping {

/// A sequential feed-forward network.
///
/// Usage: emplace layers, then `wire(c, h, w, rng)` once to resolve shapes,
/// allocate parameters and propagate subnet assignments. The final
/// MaskedLayer is automatically marked as the classification head (exempt
/// from the structural rule, recomputed per subnet — DESIGN.md §3). wire()
/// also partitions the layers into inference stages (nn/stage.h), which
/// every forward runs in order.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Construct and append a layer; returns a reference to it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  /// Resolve shapes and subnet-assignment links for input (c, h, w) images.
  /// Idempotent for an unchanged topology; parameters allocated on first
  /// call are preserved on rewires (used by clone()).
  void wire(int in_c, int in_h, int in_w, Rng& rng);

  bool wired() const { return wired_; }
  int input_channels() const { return in_c_; }
  int input_h() const { return in_h_; }
  int input_w() const { return in_w_; }

  /// The network's output: every stage's forward in order. At fp32
  /// inference each fused stage is one pass; otherwise every layer runs.
  Tensor forward(const Tensor& x, const SubnetContext& ctx);

  /// The inference stages, in order; set by wire().
  const std::vector<Stage>& stages() const { return stages_; }

  /// Backward from dL/d(logits); returns dL/d(input).
  Tensor backward(const Tensor& grad_logits, const SubnetContext& ctx);

  std::vector<Param*> params();
  void zero_grads();

  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }
  std::vector<Layer*> layer_ptrs();

  /// All masked layers in order (including the head, flagged via is_head()).
  std::vector<MaskedLayer*> masked_layers();

  /// Masked layers excluding the head (the movable "body").
  std::vector<MaskedLayer*> body_layers();

  /// For body layer at body index i, the next masked layer consuming its
  /// units (possibly the head); nullptr only for a trailing body layer.
  MaskedLayer* consumer_of(const MaskedLayer* layer);

  /// Deep copy: clones layers and rewires assignment links. Requires wired().
  Network clone() const;

  /// Number of output classes (units of the final masked layer).
  int num_classes();

  // Subnet-wide helpers -----------------------------------------------------
  void reset_importance(int num_subnets);
  void prepare_lr_suppression(int num_subnets, double beta);
  void activate_lr_scale(int k);
  void clear_prune_masks();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Stage> stages_;
  AssignmentPtr input_assign_;
  bool wired_ = false;
  int in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

/// Calibrate activation ranges for int8 inference (ISSUE 7): run `inputs`
/// (rank-4, N x C x H x W) through the fp32 forward of every subnet level in
/// [1, max_level], in batches of `batch` images, recording each quantizable
/// layer's input range per (layer, level) into the returned table. The
/// forwards are ordinary fp32 passes — network outputs are unchanged.
std::shared_ptr<quant::CalibrationTable> calibrate_int8(Network& net,
                                                        const Tensor& inputs,
                                                        int batch,
                                                        int max_level);

}  // namespace stepping
