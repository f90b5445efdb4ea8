#include "core/incremental.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/macs.h"

namespace stepping {

Tensor ladder_step(Network& net, const Tensor& x,
                   std::vector<Tensor>& layer_outputs, int from, int to) {
  assert(to >= 1 && from >= 0 && from <= to);
  SubnetContext ctx;
  ctx.subnet_id = to;
  ctx.training = false;

  const auto& layers = net.layers();
  if (layers.empty()) return x;
  layer_outputs.resize(layers.size());
  // Each stage reads its input in place from the previous stage's stored
  // output, and its own output is stored once (moved in, never copied).
  for (const Stage& stage : net.stages()) {
    const Tensor& in = stage.first() == 0 ? x : layer_outputs[stage.first() - 1];
    Tensor& out = layer_outputs[stage.last()];
    out = from == 0 ? stage.forward(in, ctx)
                    : stage.forward_step(in, out, from, ctx);
    // Nothing reads a layer's output inside a stage.
    for (std::size_t i = stage.first(); i < stage.last(); ++i) {
      layer_outputs[i] = Tensor();
    }
  }
  return layer_outputs.back();
}

std::int64_t ladder_step_macs(Network& net, int from, int to) {
  std::int64_t total = 0;
  for (MaskedLayer* m : net.masked_layers()) {
    total += m->step_weights(from, to) * m->macs_per_weight();
  }
  return total;
}

std::vector<std::uint64_t> network_signature(Network& net) {
  std::vector<std::uint64_t> sig;
  for (Param* p : net.params()) sig.push_back(p->version);
  return sig;
}

namespace {

/// Fold n floats' bytes into a 64-bit FNV-1a hash.
std::uint64_t fnv1a_fold(std::uint64_t h, const float* v, int n) {
  const auto* p = reinterpret_cast<const unsigned char*>(v);
  const std::size_t bytes = sizeof(float) * static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Bounding box, in pixels clipped to h x w, of the tiles whose fingerprint
/// differs; empty when none does. `*dirty_count` gets the number of such
/// tiles.
SpatialRegion diff_tiles(const std::vector<std::uint64_t>& prev,
                         const std::vector<std::uint64_t>& next, int tile,
                         int h, int w, int* dirty_count) {
  const int gw = (w + tile - 1) / tile;
  int tr0 = 1 << 30, tr1 = -1, tc0 = 1 << 30, tc1 = -1, count = 0;
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (prev[i] == next[i]) continue;
    ++count;
    const int tr = static_cast<int>(i) / gw;
    const int tc = static_cast<int>(i) % gw;
    tr0 = std::min(tr0, tr);
    tr1 = std::max(tr1, tr);
    tc0 = std::min(tc0, tc);
    tc1 = std::max(tc1, tc);
  }
  *dirty_count = count;
  if (count == 0) return {};
  SpatialRegion r{tr0 * tile, (tr1 + 1) * tile, tc0 * tile, (tc1 + 1) * tile};
  return r.clipped(h, w);
}

/// A row of a delta pass: its state, its new input, the input's dirty
/// region, and the result its analytic MACs are added to.
struct DeltaRow {
  LadderState* st = nullptr;
  const Tensor* x = nullptr;
  SpatialRegion region;
  LadderResult* res = nullptr;
};

/// The one-image tensors `part(row)` of every row, stacked along dim 0.
template <class Part>
Tensor stack_rows(std::span<DeltaRow> rows, Part part) {
  const Tensor& first = part(rows.front());
  std::vector<int> shape = first.shape();
  shape[0] = static_cast<int>(rows.size());
  Tensor out(shape);
  const std::size_t n = static_cast<std::size_t>(first.numel());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::memcpy(out.data() + r * n, part(rows[r]).data(), sizeof(float) * n);
  }
  return out;
}

/// The delta pass at `level` (every row's cached level) for the rows' new
/// inputs. Each row tracks its own dirty region through the stages, so it
/// computes, and is charged, exactly what a pass over it alone would.
/// Region tracking stops at the first flat output (Flatten / Dense): from
/// there the whole activation counts as dirty. One row runs in place on its
/// state; several run stacked and are written back after the last stage.
void delta_pass(Network& net, std::span<DeltaRow> rows, int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  ctx.training = false;
  const std::size_t b = rows.size();
  std::vector<Tensor> stacked;
  std::vector<Tensor>& outs = b == 1 ? rows[0].st->layer_outputs : stacked;
  Tensor xs;
  if (b > 1) {
    stacked.resize(rows[0].st->layer_outputs.size());
    xs = stack_rows(rows, [](const DeltaRow& r) -> const Tensor& { return *r.x; });
  }
  const Tensor& x = b == 1 ? *rows[0].x : xs;
  std::vector<SpatialRegion> regions(b);
  for (std::size_t r = 0; r < b; ++r) regions[r] = rows[r].region;
  bool tracked = true;
  for (const Stage& stage : net.stages()) {
    const IOSpec& spec = stage.out_spec();
    const Tensor& in = stage.first() == 0 ? x : outs[stage.first() - 1];
    Tensor& out = outs[stage.last()];
    MaskedLayer* masked = stage.masked();
    bool cover = true;
    if (tracked) {
      for (SpatialRegion& r : regions) {
        r = stage.propagate_dirty_region(r).clipped(spec.h, spec.w);
        cover = cover && r.covers(spec.h, spec.w);
      }
    }
    if (tracked && stage.supports_spatial_delta() && !cover) {
      if (b > 1) {
        out = stack_rows(rows, [&](const DeltaRow& r) -> const Tensor& {
          return r.st->layer_outputs[stage.last()];
        });
      }
      out = stage.forward_delta(in, std::move(out), regions, ctx);
      // Active weights x recomputed conv positions (the full layer is
      // active_weights x out_h*out_w == subnet_macs); a row whose region
      // covers the plane is charged the full pass a lone row runs.
      for (std::size_t r = 0; r < b; ++r) {
        rows[r].res->macs += regions[r].covers(spec.h, spec.w)
                                 ? masked->subnet_macs(level)
                                 : stage.delta_macs(regions[r], level);
      }
    } else {
      out = stage.forward(in, ctx);
      if (masked) {
        for (DeltaRow& r : rows) r.res->macs += masked->subnet_macs(level);
      }
    }
    if (spec.flat) tracked = false;
  }
  if (b == 1) return;
  for (std::size_t i = 0; i < stacked.size(); ++i) {
    if (stacked[i].empty()) continue;  // a layer inside a stage
    const std::size_t n = static_cast<std::size_t>(stacked[i].numel()) / b;
    for (std::size_t r = 0; r < b; ++r) {
      Tensor& dst = rows[r].st->layer_outputs[i];
      assert(static_cast<std::size_t>(dst.numel()) == n);
      std::memcpy(dst.data(), stacked[i].data() + r * n, sizeof(float) * n);
    }
  }
}

/// Mask the cached ladder down to `level` and recompute the head (and any
/// stage after it). Returns the analytic MACs executed.
std::int64_t mask_down(Network& net, LadderState& st, const Tensor& x,
                       int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  ctx.training = false;
  MaskedLayer* head = net.masked_layers().back();
  bool recompute = false;
  for (const Stage& stage : net.stages()) {
    recompute = recompute || stage.masked() == head;
    const IOSpec& spec = stage.out_spec();
    Tensor& out = st.layer_outputs[stage.last()];
    if (recompute) {
      out = stage.forward(stage.first() == 0 ? x : st.layer_outputs[stage.first() - 1],
                          ctx);
    } else if (spec.assignment) {
      mask_inactive_units(out, *spec.assignment, spec.features_per_unit, level);
    }
  }
  return head->subnet_macs(level);
}

}  // namespace

void tile_fingerprints(const Tensor& x, int tile,
                       std::vector<std::uint64_t>& grid) {
  if (tile < 1) throw std::invalid_argument("tile edge must be >= 1");
  assert(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int gh = (h + tile - 1) / tile;
  const int gw = (w + tile - 1) / tile;
  grid.assign(static_cast<std::size_t>(gh) * gw, 1469598103934665603ULL);
  const float* base = x.data();
  for (std::int64_t plane = 0; plane < static_cast<std::int64_t>(n) * c;
       ++plane) {
    for (int r = 0; r < h; ++r) {
      const float* row = base + (plane * h + r) * w;
      std::uint64_t* tile_row =
          grid.data() + static_cast<std::size_t>(r / tile) * gw;
      for (int tc = 0; tc < gw; ++tc) {
        const int c0 = tc * tile;
        tile_row[tc] = fnv1a_fold(tile_row[tc], row + c0,
                                  std::min(w, c0 + tile) - c0);
      }
    }
  }
}

void LadderState::reset() { *this = LadderState(); }

LadderResult advance(Network& net, LadderState& st, const Tensor& x,
                     int level, int tile,
                     const std::vector<std::uint64_t>& signature) {
  const LadderRow row{&st, &x};
  return std::move(advance_rows(net, {&row, 1}, level, tile, signature)[0]);
}

std::vector<LadderResult> advance_rows(
    Network& net, std::span<const LadderRow> rows, int level, int tile,
    const std::vector<std::uint64_t>& signature) {
  assert(level >= 1 && !net.layers().empty());
  // No state is touched before every grid is built (a bad tile edge throws).
  const std::size_t n = rows.size();
  std::vector<LadderResult> res(n);
  std::vector<std::vector<std::uint64_t>> tiles(n);
  std::vector<SpatialRegion> dirty(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LadderState& st = *rows[i].st;
    const Tensor& x = *rows[i].x;
    assert(x.rank() == 4);
    tile_fingerprints(x, tile, tiles[i]);
    res[i].full_macs = subnet_macs(net, level);
    res[i].total_tiles = static_cast<int>(tiles[i].size());
    res[i].cold = st.level == 0 || st.signature != signature ||
                  st.in_shape != x.shape() || st.tile != tile;
    const int h = x.dim(2), w = x.dim(3);
    dirty[i] = res[i].cold ? SpatialRegion::full(h, w)
                           : diff_tiles(st.tiles, tiles[i], tile, h, w,
                                        &res[i].dirty_tiles);
  }
  // Rows cached at `level` whose one image changed in part share one delta
  // pass, after the others have run alone.
  std::vector<DeltaRow> pass;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      LadderState& st = *rows[i].st;
      const Tensor& x = *rows[i].x;
      if (dirty[i].covers(x.dim(2), x.dim(3))) {
        ladder_step(net, x, st.layer_outputs, 0, level);
        res[i].macs = res[i].full_macs;
        continue;
      }
      if (!dirty[i].empty()) {
        DeltaRow row{&st, &x, dirty[i], &res[i]};
        if (st.level == level && (n == 1 || x.dim(0) == 1)) {
          pass.push_back(row);
          continue;
        }
        delta_pass(net, {&row, 1}, st.level);
      }
      if (level > st.level) {
        ladder_step(net, x, st.layer_outputs, st.level, level);
        res[i].macs += ladder_step_macs(net, st.level, level);
      } else if (level < st.level) {
        res[i].macs += mask_down(net, st, x, level);
      }
    }
    if (!pass.empty()) delta_pass(net, pass, level);
  } catch (...) {
    for (const LadderRow& r : rows) r.st->reset();
    throw;
  }
  for (std::size_t i = 0; i < n; ++i) {
    LadderState& st = *rows[i].st;
    st.level = level;
    st.in_shape = rows[i].x->shape();
    st.tile = tile;
    st.tiles = std::move(tiles[i]);
    st.signature = signature;
    res[i].logits = st.layer_outputs.back();
  }
  return res;
}

IncrementalExecutor::IncrementalExecutor(Network& net) : net_(net) {}

Tensor IncrementalExecutor::run(const Tensor& x, int subnet_id) {
  // Not thread-safe (see header): concurrent run() calls on one executor
  // corrupt the activation cache. This guard trips in debug/sanitizer
  // builds when two threads interleave.
  assert(!in_run_ && "IncrementalExecutor::run is not thread-safe");
  in_run_ = true;
  struct RunGuard {
    bool& flag;
    ~RunGuard() { flag = false; }
  } run_guard{in_run_};
  const int whole_plane = std::max({1, x.dim(2), x.dim(3)});
  LadderResult r = advance(net_, state_, x, subnet_id, whole_plane,
                           network_signature(net_));
  last_step_macs_ = r.macs;
  last_full_macs_ = r.full_macs;
  return std::move(r.logits);
}

}  // namespace stepping
