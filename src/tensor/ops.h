// Dense math kernels: GEMM, convolution, pooling, softmax, fills.
//
// Every fp32 Conv2d forward runs conv2d_implicit: the packed GEMM's axpy
// micro-kernel straight off a zero-padded copy of the input planes, so no
// such forward builds or packs an im2col matrix (nor does the int8 conv,
// which gathers byte windows, quant/prepared.h). Its epilogue also runs
// the BatchNorm2d, ReLU and MaxPool2d of a fused inference stage (nn/stage.h)
// on each computed row before write-back. im2col + GEMM remains the
// lowering of the conv backward and the Slimmable baseline, and the
// explicit oracle the implicit and int8 routes are tested against.
//
// The GEMM family, the convolutions, im2col, col2im, softmax_rows and the
// ReLU kernels execute on the global ThreadPool (util/thread_pool.h),
// partitioned so that every output element is owned by exactly one thread
// (col2im partitions over input channels — its scatter-add only overlaps
// within a channel). Results are bitwise identical to serial execution for
// any thread count (STEPPING_THREADS=1 forces serial).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace stepping {

// ---------------------------------------------------------------------------
// GEMM family. Row-major. Shapes asserted in debug builds.
// ---------------------------------------------------------------------------

/// C = A(MxK) * B(KxN)  (+ C if accumulate)
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);

/// C = A^T(MxK from KxM... ) — explicit variants to avoid materialized
/// transposes: C(MxN) = At^T * B where At is (K x M), B is (K x N).
void gemm_tn(const Tensor& at, const Tensor& b, Tensor& c, bool accumulate = false);

/// C(MxN) = A(MxK) * Bt^T where Bt is (N x K).
void gemm_nt(const Tensor& a, const Tensor& bt, Tensor& c, bool accumulate = false);

/// gemm_nt computing only rows `i` of C with row_active[i] != 0 (weight
/// gradients of active units); always accumulates into C.
void gemm_nt_rows_acc(const Tensor& a, const Tensor& bt, Tensor& c,
                      const unsigned char* row_active);

/// gemm_tn skipping contraction rows `p` with k_active[p] == 0 (whole-unit
/// skip for the input-gradient pass; zero rows contribute nothing).
void gemm_tn_rows(const Tensor& at, const Tensor& b, Tensor& c,
                  const unsigned char* k_active);

// ---------------------------------------------------------------------------
// Fused-epilogue variants (ISSUE 5): bias-add (+ optional ReLU) applied in
// the micro-kernel store, in the exact per-element op order of the unfused
// gemm -> bias -> relu sequence — bitwise identical, two fewer output
// passes.
// ---------------------------------------------------------------------------

/// gemm_nt computing only columns `j` of C with col_active[j] != 0 (each
/// column corresponds to one row of Bt, i.e. one output unit of a Dense
/// layer), then per active column j: C(i,j) += bias[j] (+ ReLU). Skipped
/// columns are left untouched.
void gemm_nt_cols_bias(const Tensor& a, const Tensor& bt, Tensor& c,
                       const unsigned char* col_active, const float* bias,
                       bool relu);

/// gemm computing only rows `i` of C with row_active[i] != 0, then per
/// active row i: C(i,:) += bias[i] (+ ReLU). Skipped rows are left
/// untouched.
void gemm_rows_bias(const Tensor& a, const Tensor& b, Tensor& c,
                    const unsigned char* row_active, const float* bias,
                    bool relu);

// ---------------------------------------------------------------------------
// Convolution lowering.
// ---------------------------------------------------------------------------

struct Conv2dGeometry {
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0;
  int kernel = 1;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the im2col matrix (= patch size).
  int patch() const { return in_c * kernel * kernel; }
};

/// im2col for one image: x is (C, H, W) flattened within a batch tensor;
/// writes the (patch, out_h*out_w) column matrix. The lowering of the conv
/// backward, and the explicit oracle conv2d_implicit (with gemm_rows_bias)
/// and the int8 conv are tested against; no forward calls it.
void im2col(const float* x, const Conv2dGeometry& g, float* cols);

/// Half-open spatial rectangle [r0, r1) x [c0, c1) over one H x W plane —
/// the dirty-region currency of the streaming delta path (ISSUE 10).
struct SpatialRegion {
  int r0 = 0, r1 = 0, c0 = 0, c1 = 0;

  bool empty() const { return r1 <= r0 || c1 <= c0; }
  int height() const { return r1 - r0; }
  int width() const { return c1 - c0; }
  std::int64_t area() const {
    return empty() ? 0
                   : static_cast<std::int64_t>(height()) * width();
  }
  bool covers(int h, int w) const {
    return r0 <= 0 && c0 <= 0 && r1 >= h && c1 >= w;
  }
  SpatialRegion clipped(int h, int w) const {
    SpatialRegion r{r0 < 0 ? 0 : r0, r1 > h ? h : r1, c0 < 0 ? 0 : c0,
                    c1 > w ? w : c1};
    return r;
  }
  static SpatialRegion full(int h, int w) { return {0, h, 0, w}; }
  /// Every position of the k x k pool windows (stride k) the region
  /// touches: the region's preimage under a k x k max pool's output map.
  SpatialRegion pool_aligned(int k) const {
    return {r0 / k * k, (r1 + k - 1) / k * k, c0 / k * k, (c1 + k - 1) / k * k};
  }

  bool operator==(const SpatialRegion& o) const {
    return r0 == o.r0 && r1 == o.r1 && c0 == o.c0 && c1 == o.c1;
  }
};

/// Map a dirty INPUT region through a convolution: the returned OUTPUT
/// region contains exactly the output positions whose receptive field
/// intersects `in` (the "dirty tiles + halo" set — every other output
/// element reads only clean input and keeps its cached value bit for bit).
/// Output position y reads input rows [y*stride - pad, y*stride - pad + k),
/// so the mapping is a pure index computation; tests/stream_test.cc pins it
/// against a brute-force receptive-field scan over a stride/pad/kernel grid.
SpatialRegion conv_dirty_out_region(const Conv2dGeometry& g,
                                    const SpatialRegion& in);

/// What conv2d_implicit does to each computed row after the bias, in this
/// order: BatchNorm2d's inference transform when `bn_mean` is set, ReLU
/// when `relu`, and a k x k stride-k max pool when `pool` > 1. Each step
/// is the same per-element expression the layer runs, so a fused stage's
/// output equals the layer walk's bit for bit: BN computes
/// xv = (y - mean[u]) * inv_std[u], then gamma[u] * xv + beta[u]
/// (BatchNorm2d::forward's expression; inv_std as
/// BatchNorm2d::inference_inv_std gives it), ReLU maps y to y > 0 ? y : +0,
/// and the pool is maxpool_plane. The default is no epilogue.
struct ConvEpilogue {
  const float* bn_mean = nullptr;  ///< per output unit; null = no BN
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  bool relu = false;
  int pool = 1;  ///< max-pool window and stride; 1 = no pool
};

/// Implicit-GEMM convolution, the route of every fp32 Conv2d forward and
/// of every fused conv stage. For each image i of the (n, in_c, in_h,
/// in_w) batch x and each row u with rows[u] != 0, computes
///   z(i, u, r, c) = epi(bias[u] + sum_p w(u, p) * cols(p, r, c)),
/// cols being the im2col matrix of the listed channels, at the output
/// positions (r, c) of image i's region, and stores it into y. `regions`
/// holds one region per image, or a single one that every image uses; each
/// is clipped to the conv plane, and an empty one writes nothing for its
/// image. Without a pool y is the (n, out_c, out_h, out_w) conv plane.
/// With a pool of k, each non-empty region is first widened to whole pool
/// windows (SpatialRegion::pool_aligned), and y is the (n, out_c, out_h /
/// k, out_w / k) pooled plane, of which only the windows in the region are
/// written. Other rows and positions are not touched. The
/// contraction runs over the listed input channels `channels` (ascending
/// ids): w holds row u at w + u * ld, ld = channels.size() * kernel^2, in
/// (channel, kh, kw) order. Rows not flagged are never read.
///
/// The route copies the listed channels once into a zero-padded buffer,
/// split into stride phases when stride > 1. It compacts each flagged row's
/// nonzero weights into (value, offset) terms in ascending (channel, kh, kw)
/// order. Then it runs the active tier's axpy micro-kernel over the output
/// positions, read as flat columns of that buffer, into a zeroed staging
/// row, applies the rest of the epilogue to that row and writes back only
/// the valid positions. On a tier with a multi-row kernel (avx2, avx512),
/// consecutive flagged rows whose terms have the same offsets run
/// KernelTable::rows at a time through it (axpy_rows), which loads each
/// term's input vectors once for all of them; shorter runs and rows with
/// other patterns run one at a time; rows are grouped and compacted once
/// per call, then run over each image's own region. Per output element
/// that is exactly
/// the sequence
/// im2col + gemm_rows_bias runs: ascending p, terms with a zero weight
/// skipped, the tier's multiply-add, then bias (then ReLU, with no BN),
/// followed by the layers the epilogue stands for. Padding stays a real
/// zero term, so an Inf or NaN weight still makes NaN at the border. The
/// bits therefore equal the explicit route's under every blocking, thread
/// count and pack-cache state of the active tier. (Where two different NaNs
/// meet in one sum, which one survives is up to how the add was compiled,
/// and only that may differ.) Work is split over flagged rows.
void conv2d_implicit(const float* x, int n, const Conv2dGeometry& g,
                     const std::vector<int>& channels, const float* w,
                     const unsigned char* rows, const float* bias,
                     const ConvEpilogue& epi,
                     std::span<const SpatialRegion> regions, float* y);

/// conv2d_implicit with one region for every image.
inline void conv2d_implicit(const float* x, int n, const Conv2dGeometry& g,
                            const std::vector<int>& channels, const float* w,
                            const unsigned char* rows, const float* bias,
                            const ConvEpilogue& epi, const SpatialRegion& region,
                            float* y) {
  conv2d_implicit(x, n, g, channels, w, rows, bias, epi, {&region, 1}, y);
}

/// col2im scatter-add, inverse of im2col (for input gradients).
void col2im(const float* cols, const Conv2dGeometry& g, float* x);

// ---------------------------------------------------------------------------
// Pooling.
// ---------------------------------------------------------------------------

/// 2x2 (or kxk) max pooling, stride == k. When `argmax` is non-null it also
/// records the argmax indices for the backward pass (same shape as output);
/// inference passes null, runs maxpool_plane and skips that work — y is
/// the same either way.
void maxpool_forward(const Tensor& x, int k, Tensor& y,
                     std::vector<int>* argmax = nullptr);

/// The inference max-pool scan over one plane: y(r, c) for r < oh, c < ow
/// is the first strict maximum of x's k x k window at (r * k, c * k), read
/// in (dy, dx) order from a start of -Inf. A NaN is never selected (an
/// all-NaN window gives -Inf), and of +0 and -0 the first one seen wins.
/// Rows of x are ldx floats apart, rows of y ldy. At k = 2 the output
/// columns run innermost so the scan vectorizes; the bits are the same.
/// maxpool_forward and conv2d_implicit's pooling epilogue both call it.
void maxpool_plane(const float* x, std::int64_t ldx, int oh, int ow, int k,
                   float* y, std::int64_t ldy);
void maxpool_backward(const Tensor& grad_y, const std::vector<int>& argmax,
                      Tensor& grad_x);

// ---------------------------------------------------------------------------
// Softmax / elementwise.
// ---------------------------------------------------------------------------

/// Row-wise softmax of logits (N, C) -> probabilities (N, C). Numerically
/// stabilized by max subtraction.
void softmax_rows(const Tensor& logits, Tensor& probs);

/// y = x where x > 0, else +0 (NaN and -0 map to +0). When `mask` is
/// non-null it also records x > 0 for the backward pass; inference passes
/// null and skips that work — y is the same either way.
void relu_forward(const Tensor& x, Tensor& y,
                  std::vector<unsigned char>* mask = nullptr);
void relu_backward(const Tensor& grad_y, const std::vector<unsigned char>& mask,
                   Tensor& grad_x);

// ---------------------------------------------------------------------------
// Random fills for initialization.
// ---------------------------------------------------------------------------

/// Kaiming/He normal fill for ReLU networks: N(0, sqrt(2 / fan_in)).
void fill_kaiming_normal(Tensor& t, int fan_in, Rng& rng);

/// Uniform fill in [lo, hi).
void fill_uniform(Tensor& t, float lo, float hi, Rng& rng);

/// Standard normal fill scaled by stddev.
void fill_normal(Tensor& t, float mean, float stddev, Rng& rng);

}  // namespace stepping
