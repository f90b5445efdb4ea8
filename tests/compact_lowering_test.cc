// Compacted conv lowering: Conv2d's fp32 forward, forward_step and
// forward_delta lower only the input channels the executing subnet can read
// and gather the weights of only the rows they compute. These tests pin that
// route byte for byte against a full-width reference — every channel
// lowered by im2col, the full effective_weights() matrix, one GEMM over the
// whole contraction — at every level, over shuffled (non-prefix)
// assignments, partly pruned weights, kernel {1, 3, 5} x stride {1, 2} x pad
// {0, same}, a head conv, two blockings and 1 and 4 threads. Channels a
// level cannot read hold NaN and Inf, which must not reach the output.
//
// The reference GEMM runs through the dispatcher, so the suite holds at any
// ISA tier (the CI isa-matrix job re-runs it under each STEPPING_ISA pin);
// on the tiers without FMA the reference is additionally asserted equal to
// gemmref::gemm_rows_bias. The effective_weights() tests pin the refresh's
// bytes and its pack_id() change sequence against a per-element loop for
// Conv2d, Dense and DepthwiseConv2d.
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "tensor/gemm_isa.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

constexpr int kLevels = 4;

class CompactLowering : public ::testing::Test {
 protected:
  void TearDown() override {
    set_gemm_blocking(env_gemm_blocking());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

bool same_bytes(const float* a, const float* b, std::size_t n,
                const std::string& what) {
  if (std::memcmp(a, b, n * sizeof(float)) == 0) return true;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first difference at " << i << " (" << a[i]
                    << " vs " << b[i] << ")";
      break;
    }
  }
  return false;
}

bool same_bytes(const Tensor& a, const Tensor& b, const std::string& what) {
  if (a.shape() != b.shape()) {
    ADD_FAILURE() << what << ": shape " << a.shape_str() << " vs "
                  << b.shape_str();
    return false;
  }
  return same_bytes(a.data(), b.data(), static_cast<std::size_t>(a.numel()),
                    what);
}

/// Levels 1..kLevels, each present at least once, in shuffled order.
AssignmentPtr shuffled_levels(int n, Rng& rng) {
  auto a = std::make_shared<Assignment>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) (*a)[static_cast<std::size_t>(i)] = 1 + i % kLevels;
  rng.shuffle(*a);
  return a;
}

std::vector<std::uint8_t> random_prune_mask(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> mask(n);
  for (auto& m : mask) m = rng.uniform(0.0, 1.0) < 0.3 ? 0 : 1;
  return mask;
}

/// A Conv2d on `in_c` channels with shuffled input and output assignments
/// and about 30 % of its weights pruned.
struct ConvRig {
  ConvRig(int in_c, int h, int w, int out_c, int kernel, int stride, int pad,
          bool head, unsigned seed)
      : conv("c", out_c, kernel, stride, pad), rng(seed) {
    IOSpec in;
    in.units = in_c;
    in.h = h;
    in.w = w;
    in.assignment = shuffled_levels(in_c, rng);
    in_assign = in.assignment;
    conv.set_out_spec(conv.wire(in, rng));
    conv.set_head(head);
    const AssignmentPtr out = shuffled_levels(out_c, rng);
    for (int u = 0; u < out_c; ++u) {
      conv.set_unit_subnet(u, (*out)[static_cast<std::size_t>(u)]);
    }
    conv.set_prune_mask(random_prune_mask(
        static_cast<std::size_t>(conv.num_units()) * conv.num_cols(), rng));
    fill_normal(conv.bias().value, 0.0f, 0.5f, rng);
  }

  /// Batch-2 input. Channels level `level` cannot read hold NaN and ±Inf; a
  /// head reads every channel, so for a head they keep finite values, which
  /// its output must include.
  Tensor input(int level, unsigned seed) const {
    const Conv2dGeometry& g = conv.geometry();
    Rng r(seed);
    Tensor x({2, g.in_c, g.in_h, g.in_w});
    fill_normal(x, 0.0f, 1.0f, r);
    poison(x, level);
    return x;
  }

  void poison(Tensor& x, int level) const {
    if (conv.is_head()) return;
    const Conv2dGeometry& g = conv.geometry();
    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity()};
    const std::int64_t plane = static_cast<std::int64_t>(g.in_h) * g.in_w;
    for (int i = 0; i < x.dim(0); ++i) {
      for (int c = 0; c < g.in_c; ++c) {
        if ((*in_assign)[static_cast<std::size_t>(c)] <= level) continue;
        float* p = x.data() + (static_cast<std::int64_t>(i) * g.in_c + c) * plane;
        for (std::int64_t j = 0; j < plane; ++j) p[j] = bad[j % 3];
      }
    }
  }

  /// Full-width reference at `level`: every channel lowered, the full
  /// effective weight matrix, the dispatching GEMM over the whole
  /// contraction.
  Tensor reference(const Tensor& x, int level) {
    const Conv2dGeometry& g = conv.geometry();
    const int units = conv.num_units();
    const int spatial = g.out_h() * g.out_w();
    const Tensor& w = conv.effective_weights();
    std::vector<unsigned char> rows(static_cast<std::size_t>(units));
    for (int u = 0; u < units; ++u) {
      rows[static_cast<std::size_t>(u)] =
          conv.is_head() || conv.unit_subnet()[static_cast<std::size_t>(u)] <= level;
    }
    Tensor y({x.dim(0), units, g.out_h(), g.out_w()});
    std::vector<float> cols(static_cast<std::size_t>(g.patch()) * spatial);
    const bool fma = isa_tier() == IsaTier::kAvx2 || isa_tier() == IsaTier::kAvx512;
    for (int i = 0; i < x.dim(0); ++i) {
      im2col(x.data() + static_cast<std::int64_t>(i) * g.in_c * g.in_h * g.in_w,
             g, cols.data());
      float* yi = y.data() + static_cast<std::int64_t>(i) * units * spatial;
      gemm_rows_bias(w.data(), cols.data(), yi, units, g.patch(), spatial,
                     rows.data(), conv.bias().value.data(), false);
      if (!fma) {
        std::vector<float> ref(static_cast<std::size_t>(units) * spatial, 0.0f);
        gemmref::gemm_rows_bias(w.data(), cols.data(), ref.data(), units,
                                g.patch(), spatial, rows.data(),
                                conv.bias().value.data(), false);
        same_bytes(ref.data(), yi, ref.size(), "gemmref vs dispatcher");
      }
    }
    return y;
  }

  Conv2d conv;
  Rng rng;
  AssignmentPtr in_assign;
};

SubnetContext at_level(int level) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  ctx.training = false;
  return ctx;
}

/// forward at every level, forward_step from every lower level, and
/// forward_delta over three dirty rectangles, all against the reference.
void check_rig(ConvRig& rig, const std::string& tag) {
  const Conv2dGeometry& g = rig.conv.geometry();
  for (int level = 1; level <= kLevels; ++level) {
    const std::string lt = tag + " L" + std::to_string(level);
    const SubnetContext ctx = at_level(level);
    const Tensor x = rig.input(level, 100u + static_cast<unsigned>(level));
    const Tensor want = rig.reference(x, level);
    same_bytes(want, rig.conv.forward(x, ctx), lt + " forward");
    for (int from = 1; from < level; ++from) {
      const Tensor cached = rig.conv.forward(x, at_level(from));
      same_bytes(want, rig.conv.forward_step(x, cached, from, ctx),
                 lt + " forward_step from L" + std::to_string(from));
    }
    const SpatialRegion dirty[] = {
        {0, 2, 0, 3}, {g.in_h / 2, g.in_h / 2 + 1, g.in_w / 2, g.in_w / 2 + 1},
        {g.in_h - 3, g.in_h, 1, g.in_w}};
    for (const SpatialRegion& in_reg : dirty) {
      Tensor x_new = x;
      Rng r(7u + static_cast<unsigned>(in_reg.r0 * 31 + in_reg.c0));
      for (int i = 0; i < x.dim(0); ++i) {
        for (int c = 0; c < g.in_c; ++c) {
          for (int yy = in_reg.r0; yy < in_reg.r1; ++yy) {
            for (int xx = in_reg.c0; xx < in_reg.c1; ++xx) {
              x_new.at(i, c, yy, xx) = static_cast<float>(r.normal(0.0, 1.0));
            }
          }
        }
      }
      rig.poison(x_new, level);
      const SpatialRegion out_reg = conv_dirty_out_region(g, in_reg);
      const Tensor cached = rig.conv.forward(x, ctx);
      same_bytes(rig.reference(x_new, level),
                 rig.conv.forward_delta(x_new, cached, out_reg, ctx),
                 lt + " forward_delta rows [" + std::to_string(in_reg.r0) +
                     "," + std::to_string(in_reg.r1) + ")");
    }
  }
}

TEST_F(CompactLowering, ConvPathsMatchFullWidthReferenceOverGeometryGrid) {
  const GemmBlocking blockings[] = {env_gemm_blocking(),
                                    GemmBlocking{8, 16, 24, false, 0, 0}};
  unsigned seed = 1;
  for (const int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    for (const GemmBlocking& blk : blockings) {
      set_gemm_blocking(blk);
      for (const int kernel : {1, 3, 5}) {
        for (const int stride : {1, 2}) {
          for (const int pad : {0, -1}) {
            for (const bool head : {false, true}) {
              if (head && (stride != 1 || pad != -1)) continue;
              const std::string tag =
                  "t=" + std::to_string(threads) + " blk=" +
                  std::to_string(blk.kc) + " k=" + std::to_string(kernel) +
                  " s=" + std::to_string(stride) +
                  (pad < 0 ? " same" : " valid") + (head ? " head" : "");
              ConvRig rig(/*in_c=*/9, /*h=*/11, /*w=*/10, /*out_c=*/13, kernel,
                          stride, pad, head, seed++);
              check_rig(rig, tag);
            }
          }
        }
      }
    }
  }
}

TEST_F(CompactLowering, ReadableChannelsFollowAssignmentAndHead) {
  ConvRig rig(9, 6, 6, 5, 3, 1, -1, /*head=*/false, 77);
  for (int level = 1; level <= kLevels; ++level) {
    std::vector<int> want;
    for (int c = 0; c < 9; ++c) {
      if ((*rig.in_assign)[static_cast<std::size_t>(c)] <= level) want.push_back(c);
    }
    EXPECT_EQ(rig.conv.readable_in_units(level), want) << "L" << level;
  }
  rig.conv.set_head(true);
  EXPECT_EQ(rig.conv.readable_in_units(1).size(), 9u);
}

/// Naive per-element lowering: the definition im2col must reproduce.
std::vector<float> naive_lowering(const Tensor& x, const Conv2dGeometry& g,
                                  const std::vector<int>& channels,
                                  const SpatialRegion& reg) {
  std::vector<float> out;
  for (const int c : channels) {
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        for (int y = reg.r0; y < reg.r1; ++y) {
          for (int xo = reg.c0; xo < reg.c1; ++xo) {
            const int iy = y * g.stride + kh - g.pad;
            const int ix = xo * g.stride + kw - g.pad;
            const bool in = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            out.push_back(in ? x.at(0, c, iy, ix) : 0.0f);
          }
        }
      }
    }
  }
  return out;
}

TEST_F(CompactLowering, Im2colChannelListsMatchNaiveLowering) {
  Rng rng(5);
  for (const int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    for (const int kernel : {1, 3, 5}) {
      for (const int stride : {1, 2, 3}) {
        for (const int pad : {0, kernel / 2, kernel}) {
          const Conv2dGeometry g{6, 9, 11, 4, kernel, stride, pad};
          if (g.out_h() <= 0 || g.out_w() <= 0) continue;
          Tensor x({1, g.in_c, g.in_h, g.in_w});
          fill_normal(x, 0.0f, 1.0f, rng);
          x.at(0, 2, 1, 1) = -0.0f;
          x.at(0, 4, 0, 0) = std::numeric_limits<float>::quiet_NaN();
          const std::string tag = "t=" + std::to_string(threads) +
                                  " k=" + std::to_string(kernel) +
                                  " s=" + std::to_string(stride) +
                                  " p=" + std::to_string(pad);
          const std::vector<int> all = {0, 1, 2, 3, 4, 5};
          const std::vector<int> some = {1, 2, 4};
          const SpatialRegion full = SpatialRegion::full(g.out_h(), g.out_w());
          std::vector<float> cols(static_cast<std::size_t>(g.patch()) *
                                  g.out_h() * g.out_w());
          im2col(x.data(), g, cols.data());
          std::vector<float> want = naive_lowering(x, g, all, full);
          same_bytes(want.data(), cols.data(), want.size(), tag + " im2col");
          im2col(x.data(), g, cols.data(), &some);
          want = naive_lowering(x, g, some, full);
          same_bytes(want.data(), cols.data(), want.size(), tag + " im2col list");
          // Narrow and wide regions, from the left edge and from inside.
          const SpatialRegion regions[] = {
              {g.out_h() / 2, g.out_h(), 0, (g.out_w() + 1) / 2},
              {0, (g.out_h() + 1) / 2, 1, g.out_w()}};
          for (const SpatialRegion& reg : regions) {
            if (reg.clipped(g.out_h(), g.out_w()).empty()) continue;
            im2col_region(x.data(), g, reg, cols.data(), &some);
            want = naive_lowering(x, g, some, reg.clipped(g.out_h(), g.out_w()));
            same_bytes(want.data(), cols.data(), want.size(),
                       tag + " im2col_region list c0=" + std::to_string(reg.c0));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// effective_weights(): bytes and pack_id() sequence.
// ---------------------------------------------------------------------------

/// The per-element definition: value x prune mask x structural rule.
std::vector<float> per_element_effective(const MaskedLayer& layer) {
  const int units = layer.num_units(), cols = layer.num_cols();
  std::vector<float> out(static_cast<std::size_t>(units) * cols);
  const float* w = layer.weight().value.data();
  for (int u = 0; u < units; ++u) {
    for (int c = 0; c < cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(u) * cols + c;
      const bool keep = layer.prune_mask()[i] && layer.structurally_active(u, c);
      out[i] = keep ? w[i] : 0.0f;
    }
  }
  return out;
}

/// Checks the refreshed bytes against the per-element loop, and that the
/// pack id changed exactly when those bytes (or the weight version) did.
struct EffectiveTracker {
  explicit EffectiveTracker(MaskedLayer& l) : layer(l) {
    refresh("first refresh");
    EXPECT_NE(id, 0u);
  }
  void refresh(const std::string& what, bool version_bumped = false) {
    const std::vector<float> want = per_element_effective(layer);
    const bool bytes_changed =
        prev.size() != want.size() ||
        std::memcmp(prev.data(), want.data(), want.size() * sizeof(float)) != 0;
    const Tensor& got = layer.effective_weights();
    same_bytes(want.data(), got.data(), want.size(), what);
    const std::uint64_t now = layer.pack_id();
    if (id != 0) {
      EXPECT_EQ(now != id, bytes_changed || version_bumped) << what;
    }
    id = now;
    prev = want;
  }
  MaskedLayer& layer;
  std::uint64_t id = 0;
  std::vector<float> prev;
};

/// Drives one layer through every kind of edit the refresh must notice (or
/// ignore) and checks gather_weights() sub-blocks against the full matrix.
void check_refresh_sequence(MaskedLayer& layer, Rng& rng) {
  EffectiveTracker t(layer);
  t.refresh("unchanged");
  const int cols = layer.num_cols();
  float* w = layer.weight().value.data();
  // Find one kept and one structurally masked element.
  int kept = -1, masked = -1;
  for (int i = 0; i < layer.num_units() * cols; ++i) {
    const bool s = layer.structurally_active(i / cols, i % cols);
    if (s && layer.prune_mask()[static_cast<std::size_t>(i)] && kept < 0) kept = i;
    if (!s && masked < 0) masked = i;
  }
  ASSERT_GE(kept, 0);
  w[kept] = 0.0f;
  t.refresh("kept weight -> +0");
  w[kept] = -0.0f;
  t.refresh("kept weight +0 -> -0");
  w[kept] = std::numeric_limits<float>::quiet_NaN();
  t.refresh("kept weight -> NaN");
  if (masked >= 0) {
    w[masked] = 123.0f;
    t.refresh("structurally masked weight edited");
  }
  std::vector<std::uint8_t> mask = layer.prune_mask();
  mask[static_cast<std::size_t>(kept)] = 0;
  layer.set_prune_mask(mask);
  t.refresh("prune kept weight");
  if (layer.units_movable()) {
    layer.set_unit_subnet(0, layer.unit_subnet()[0] == 1 ? kLevels : 1);
    t.refresh("unit moved");
  }
  ++layer.weight().version;
  t.refresh("version bump", /*version_bumped=*/true);
  layer.set_prune_mask(random_prune_mask(mask.size(), rng));
  t.refresh("new prune mask");

  // gather_weights over a row subset and an input-unit subset is the
  // matching sub-block of the full matrix.
  const int groups = cols / layer.col_group();
  if (groups < 2) return;
  std::vector<unsigned char> rows(static_cast<std::size_t>(layer.num_units()));
  for (std::size_t u = 0; u < rows.size(); ++u) rows[u] = u % 2;
  const std::vector<int> pick = {0, groups - 1};
  const int ld = static_cast<int>(pick.size()) * layer.col_group();
  std::vector<float> dst(rows.size() * static_cast<std::size_t>(ld), -7.0f);
  layer.gather_weights(rows.data(), &pick, dst.data());
  const Tensor& full = layer.effective_weights();
  for (int u = 0; u < layer.num_units(); ++u) {
    for (std::size_t j = 0; j < pick.size(); ++j) {
      for (int t2 = 0; t2 < layer.col_group(); ++t2) {
        const float got = dst[static_cast<std::size_t>(u) * ld +
                              j * layer.col_group() + t2];
        if (!rows[static_cast<std::size_t>(u)]) {
          EXPECT_EQ(got, -7.0f) << "unflagged row written";
          continue;
        }
        const float want = full.at(u, pick[j] * layer.col_group() + t2);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
            << "gather row " << u << " group " << pick[j];
      }
    }
  }
}

TEST_F(CompactLowering, EffectiveWeightsRefreshConv2d) {
  ConvRig rig(6, 5, 5, 7, 3, 1, -1, /*head=*/false, 31);
  check_refresh_sequence(rig.conv, rig.rng);
  rig.conv.set_head(true);
  check_refresh_sequence(rig.conv, rig.rng);
}

TEST_F(CompactLowering, EffectiveWeightsRefreshDense) {
  Rng rng(32);
  Dense fc("fc", 6);
  IOSpec in;
  in.units = 5;
  in.features_per_unit = 3;
  in.flat = true;
  in.assignment = shuffled_levels(5, rng);
  fc.set_out_spec(fc.wire(in, rng));
  const AssignmentPtr out = shuffled_levels(6, rng);
  for (int u = 0; u < 6; ++u) fc.set_unit_subnet(u, (*out)[static_cast<std::size_t>(u)]);
  fc.set_prune_mask(random_prune_mask(6u * 15u, rng));
  check_refresh_sequence(fc, rng);
}

TEST_F(CompactLowering, EffectiveWeightsRefreshDepthwise) {
  Rng rng(33);
  DepthwiseConv2d dw("dw", 3);
  IOSpec in;
  in.units = 6;
  in.h = 5;
  in.w = 5;
  in.assignment = shuffled_levels(6, rng);
  dw.set_out_spec(dw.wire(in, rng));
  dw.set_prune_mask(random_prune_mask(6u * 9u, rng));
  check_refresh_sequence(dw, rng);
}

}  // namespace
}  // namespace stepping
