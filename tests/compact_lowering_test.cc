// Compacted conv route: Conv2d's fp32 forward, forward_step and
// forward_delta read only the input channels the executing subnet can read,
// gather the weights of only the rows they compute, and run them through
// the implicit-GEMM conv (conv2d_implicit) off a zero-padded input copy.
// These tests pin that route byte for byte against an explicit full-width
// reference — every channel lowered by im2col, the full effective_weights()
// matrix, one gemm_rows_bias over the whole contraction — at every level,
// over shuffled (non-prefix) assignments, partly pruned weights, kernel
// {1, 3, 5} x stride {1, 2} x pad {0, same}, a head conv, two blockings and
// 1 and 4 threads. Channels a level cannot read hold NaN and Inf, which
// must not reach the output. Further cases cover where an implicit route
// could go wrong: kernels wider than the plane, the last image's
// bottom-right corner, Inf and NaN weights meeting zero padding, non-finite
// inputs meeting zero weights, and packing.
//
// The reference GEMM runs through the dispatcher, so the suite holds at any
// ISA tier (the CI isa-matrix job re-runs it under each STEPPING_ISA pin);
// on the tiers without FMA the reference is additionally asserted equal to
// gemmref::gemm_rows_bias. The effective_weights() tests pin the refresh's
// bytes against a per-element loop for Conv2d, Dense and DepthwiseConv2d.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "obs/metrics.h"
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

  /// Batch-`batch` input. Channels level `level` cannot read hold NaN and
  /// ±Inf; a head reads every channel, so for a head they keep finite
  /// values, which its output must include.
  Tensor input(int level, unsigned seed, int batch = 2) const {
    const Conv2dGeometry& g = conv.geometry();
    Rng r(seed);
    Tensor x({batch, g.in_c, g.in_h, g.in_w});
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

/// Redraws the input inside `in_reg` (clipped to the plane) and checks
/// forward_delta over the matching output region against the reference.
void check_delta(ConvRig& rig, const Tensor& x, const SpatialRegion& in_reg,
                 int level, const std::string& what) {
  const Conv2dGeometry& g = rig.conv.geometry();
  const SpatialRegion in_clip = in_reg.clipped(g.in_h, g.in_w);
  Tensor x_new = x;
  Rng r(7u + static_cast<unsigned>(in_reg.r0 * 31 + in_reg.c0));
  for (int i = 0; i < x.dim(0); ++i) {
    for (int c = 0; c < g.in_c; ++c) {
      for (int yy = in_clip.r0; yy < in_clip.r1; ++yy) {
        for (int xx = in_clip.c0; xx < in_clip.c1; ++xx) {
          x_new.at(i, c, yy, xx) = static_cast<float>(r.normal(0.0, 1.0));
        }
      }
    }
  }
  rig.poison(x_new, level);
  const SubnetContext ctx = at_level(level);
  const SpatialRegion out_reg = conv_dirty_out_region(g, in_reg);
  const Tensor cached = rig.conv.forward(x, ctx);
  same_bytes(rig.reference(x_new, level),
             rig.conv.forward_delta(x_new, cached, out_reg, ctx), what);
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
      check_delta(rig, x, in_reg, level,
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

// A 5x5 window wider than the plane: every tap past the plane reads
// padding, and on the 1xW plane every row but one is padding.
TEST_F(CompactLowering, FiveByFiveKernelOnPlanesSmallerThanItsWindow) {
  unsigned seed = 300;
  for (const int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    ConvRig square(5, 2, 2, 7, /*kernel=*/5, /*stride=*/1, /*pad=*/2,
                   /*head=*/false, seed++);
    check_rig(square, "t=" + std::to_string(threads) + " 2x2");
    ConvRig row(5, 1, 9, 7, 5, 1, 2, /*head=*/false, seed++);
    check_rig(row, "t=" + std::to_string(threads) + " 1x9");
  }
}

// The implicit route reads past each computed column by up to 2*NR - 1
// floats; at the last image's bottom-right corner those reads run past the
// end of the padded copy into its slack. Arena memory is not poisoned, so
// this pins only the values; the slack itself is sized from the tier's NR.
TEST_F(CompactLowering, Batch3DeltaAtTheBottomRightCorner) {
  const struct { int kernel, stride, pad; } geoms[] = {
      {3, 1, 1}, {5, 1, 2}, {3, 2, 1}, {1, 1, 0}, {5, 2, 0}};
  unsigned seed = 400;
  for (const auto& geo : geoms) {
    ConvRig rig(6, 9, 13, 11, geo.kernel, geo.stride, geo.pad,
                /*head=*/false, seed++);
    const Conv2dGeometry& g = rig.conv.geometry();
    for (int level = 1; level <= kLevels; ++level) {
      const Tensor x = rig.input(level, seed + 10u * level, /*batch=*/3);
      const std::string tag = "k=" + std::to_string(geo.kernel) + " s=" +
                              std::to_string(geo.stride) + " L" +
                              std::to_string(level);
      check_delta(rig, x, {g.in_h - 1, g.in_h, g.in_w - 1, g.in_w}, level,
                  tag + " corner pixel");
      check_delta(rig, x, {g.in_h - 3, g.in_h, g.in_w - 4, g.in_w}, level,
                  tag + " corner block");
    }
  }
}

// Padding is a real zero term: an Inf weight times padding is NaN on the
// explicit route, so the implicit one must produce NaN at exactly the
// border positions where that tap reads padding (and Inf elsewhere, the
// input being positive). A NaN weight poisons its whole unit on both.
TEST_F(CompactLowering, InfAndNanWeightsMeetZeroPaddingLikeTheExplicitRoute) {
  const struct { int kernel, stride, pad; } geoms[] = {
      {3, 1, 1}, {5, 1, 2}, {3, 2, 1}};
  unsigned seed = 500;
  for (const auto& geo : geoms) {
    ConvRig rig(4, 7, 6, 8, geo.kernel, geo.stride, geo.pad, /*head=*/false,
                seed++);
    rig.conv.clear_prune_mask();
    const Conv2dGeometry& g = rig.conv.geometry();
    const int kk = g.kernel * g.kernel;
    // Units of the top level read every channel; poison one weight each of
    // two of them: tap (0, 0) of channel 1 and the last tap of channel 2.
    std::vector<int> top;
    for (int u = 0; u < rig.conv.num_units(); ++u) {
      if (rig.conv.unit_subnet()[static_cast<std::size_t>(u)] == kLevels) top.push_back(u);
    }
    ASSERT_GE(top.size(), 2u);
    const int inf_unit = top[0], nan_unit = top[1];
    float* w = rig.conv.weight().value.data();
    w[static_cast<std::size_t>(inf_unit) * rig.conv.num_cols() + 1 * kk] =
        std::numeric_limits<float>::infinity();
    w[static_cast<std::size_t>(nan_unit) * rig.conv.num_cols() + 2 * kk + kk - 1] =
        std::numeric_limits<float>::quiet_NaN();
    Rng r(seed);
    Tensor x({2, g.in_c, g.in_h, g.in_w});
    fill_uniform(x, 0.5f, 1.5f, r);
    const std::string tag = "k=" + std::to_string(geo.kernel) + " s=" +
                            std::to_string(geo.stride);
    const Tensor want = rig.reference(x, kLevels);
    const Tensor got = rig.conv.forward(x, at_level(kLevels));
    same_bytes(want, got, tag + " forward");
    for (int from = 1; from < kLevels; ++from) {
      same_bytes(want,
                 rig.conv.forward_step(x, rig.conv.forward(x, at_level(from)),
                                       from, at_level(kLevels)),
                 tag + " forward_step from L" + std::to_string(from));
    }
    check_delta(rig, x, {0, 2, 0, 2}, kLevels, tag + " forward_delta corner");
    for (int i = 0; i < x.dim(0); ++i) {
      for (int y = 0; y < g.out_h(); ++y) {
        for (int c = 0; c < g.out_w(); ++c) {
          const bool pad_read = y * g.stride < g.pad || c * g.stride < g.pad;
          EXPECT_EQ(std::isnan(got.at(i, inf_unit, y, c)), pad_read)
              << tag << " Inf unit at (" << y << "," << c << ")";
          EXPECT_TRUE(std::isnan(got.at(i, nan_unit, y, c))) << tag;
        }
      }
    }
  }
}

// Terms with a zero weight are skipped, not multiplied: a non-finite value
// in a readable channel must not reach the units whose weights from that
// channel are structurally zero or pruned (0 x Inf would be NaN). The
// poison is ±Inf and -0, not NaN: every NaN those make is the default NaN,
// while a NaN input meeting such a NaN in one sum leaves whichever operand
// the compiled add happens to take first, and the oracle's fallback loop
// and the micro-kernel need not order that add alike.
TEST_F(CompactLowering, NonFiniteInputsMeetZeroWeightsLikeTheExplicitRoute) {
  unsigned seed = 700;
  for (const int kernel : {1, 3, 5}) {
    ConvRig rig(6, 7, 8, 12, kernel, 1, -1, /*head=*/false, seed++);
    const Conv2dGeometry& g = rig.conv.geometry();
    for (int level = 2; level <= kLevels; ++level) {
      Tensor x = rig.input(level, seed + 20u * level);
      // Poison every channel of level 2..level that this level reads.
      const float bad[] = {std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(), -0.0f};
      for (int i = 0; i < x.dim(0); ++i) {
        for (int c = 0; c < g.in_c; ++c) {
          const int sc = (*rig.in_assign)[static_cast<std::size_t>(c)];
          if (sc < 2 || sc > level) continue;
          for (int y = 0; y < g.in_h; ++y) {
            for (int xx = 0; xx < g.in_w; ++xx) x.at(i, c, y, xx) = bad[(y + xx) % 3];
          }
        }
      }
      const std::string lt = "k=" + std::to_string(kernel) + " L" + std::to_string(level);
      const Tensor want = rig.reference(x, level);
      same_bytes(want, rig.conv.forward(x, at_level(level)), lt + " forward");
      for (int from = 1; from < level; ++from) {
        same_bytes(want,
                   rig.conv.forward_step(x, rig.conv.forward(x, at_level(from)),
                                         from, at_level(level)),
                   lt + " forward_step from L" + std::to_string(from));
      }
      // Level-1 units read no poisoned channel: finite everywhere.
      for (int u = 0; u < rig.conv.num_units(); ++u) {
        if (rig.conv.unit_subnet()[static_cast<std::size_t>(u)] != 1) continue;
        for (int y = 0; y < g.out_h(); ++y) {
          for (int c = 0; c < g.out_w(); ++c) {
            EXPECT_TRUE(std::isfinite(want.at(0, u, y, c))) << lt;
          }
        }
      }
    }
  }
}

// No fp32 conv forward builds or packs a B operand: the implicit route
// reads the padded input copy in place.
TEST_F(CompactLowering, Fp32ConvForwardsPackNothing) {
  ConvRig rig(16, 12, 12, 24, 3, 1, -1, /*head=*/false, 600);
  const Conv2dGeometry& g = rig.conv.geometry();
  const obs::Counter& packs =
      obs::Registry::global().counter("stepping_gemm_packs_total");
  const Tensor x = rig.input(kLevels, 601);
  const std::uint64_t before = packs.value();
  for (int level = 1; level <= kLevels; ++level) {
    const SubnetContext ctx = at_level(level);
    const Tensor y = rig.conv.forward(x, ctx);
    rig.conv.forward_relu(x, ctx);
    for (int from = 1; from < level; ++from) {
      rig.conv.forward_step(x, rig.conv.forward(x, at_level(from)), from, ctx);
    }
    rig.conv.forward_delta(x, y, {2, 7, 3, 9}, ctx);
  }
  EXPECT_EQ(packs.value(), before);
  // The explicit oracle packs at this shape, so the counter is live.
  if (gemm_uses_blocked(rig.conv.num_units(), g.patch(),
                        static_cast<std::int64_t>(g.out_h()) * g.out_w(),
                        gemm_blocking())) {
    rig.reference(x, kLevels);
    EXPECT_GT(packs.value(), before);
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
std::vector<float> naive_lowering(const Tensor& x, const Conv2dGeometry& g) {
  std::vector<float> out;
  for (int c = 0; c < g.in_c; ++c) {
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        for (int y = 0; y < g.out_h(); ++y) {
          for (int xo = 0; xo < g.out_w(); ++xo) {
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

TEST_F(CompactLowering, Im2colMatchesNaiveLowering) {
  Rng rng(5);
  for (const int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    for (const int kernel : {1, 3, 5}) {
      for (const int stride : {1, 2, 3}) {
        for (const int pad : {0, kernel / 2, kernel}) {
          for (const int w : {11, 3}) {  // run copies / per-element loop
            const Conv2dGeometry g{6, 9, w, 4, kernel, stride, pad};
            if (g.out_h() <= 0 || g.out_w() <= 0) continue;
            Tensor x({1, g.in_c, g.in_h, g.in_w});
            fill_normal(x, 0.0f, 1.0f, rng);
            x.at(0, 2, 1, 1) = -0.0f;
            x.at(0, 4, 0, 0) = std::numeric_limits<float>::quiet_NaN();
            const std::string tag = "t=" + std::to_string(threads) +
                                    " k=" + std::to_string(kernel) +
                                    " s=" + std::to_string(stride) +
                                    " p=" + std::to_string(pad) +
                                    " w=" + std::to_string(w);
            std::vector<float> cols(static_cast<std::size_t>(g.patch()) *
                                    g.out_h() * g.out_w());
            im2col(x.data(), g, cols.data());
            const std::vector<float> want = naive_lowering(x, g);
            same_bytes(want.data(), cols.data(), want.size(), tag + " im2col");
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// effective_weights(): bytes after every kind of edit.
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

/// Drives one layer through every kind of edit the refresh must notice (or
/// ignore), checking the refreshed bytes against the per-element loop after
/// each, and checks gather_weights() sub-blocks against the full matrix.
void check_refresh_sequence(MaskedLayer& layer, Rng& rng) {
  const auto refresh = [&](const std::string& what) {
    const std::vector<float> want = per_element_effective(layer);
    const Tensor& got = layer.effective_weights();
    same_bytes(want.data(), got.data(), want.size(), what);
  };
  refresh("first refresh");
  refresh("unchanged");
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
  refresh("kept weight -> +0");
  w[kept] = -0.0f;
  refresh("kept weight +0 -> -0");
  w[kept] = std::numeric_limits<float>::quiet_NaN();
  refresh("kept weight -> NaN");
  if (masked >= 0) {
    w[masked] = 123.0f;
    refresh("structurally masked weight edited");
  }
  std::vector<std::uint8_t> mask = layer.prune_mask();
  mask[static_cast<std::size_t>(kept)] = 0;
  layer.set_prune_mask(mask);
  refresh("prune kept weight");
  if (layer.units_movable()) {
    layer.set_unit_subnet(0, layer.unit_subnet()[0] == 1 ? kLevels : 1);
    refresh("unit moved");
  }
  layer.set_prune_mask(random_prune_mask(mask.size(), rng));
  refresh("new prune mask");

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
