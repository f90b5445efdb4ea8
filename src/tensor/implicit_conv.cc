// conv2d_implicit (tensor/ops.h): the implicit-GEMM convolution.
//
// Layout. The listed input channels of each image are copied into a
// zero-padded buffer split into s x s stride phases: padded pixel
// (q*s + ph, t*s + pw) lands at row q, column t of phase plane (ph, pw),
// every plane hq x wq. Tap (kh, kw) of output (r, c) reads padded pixel
// (r*s + kh, c*s + kw), i.e. row r + kh/s, column c + kw/s of phase
// (kh%s, kw%s). Reading output (r, c) as flat column j = r*wq + c, every
// term of a row is therefore one fixed offset into the buffer plus j — the
// packed GEMM's B row, with the buffer standing in for the packed panel.
// Columns with c >= out_w wrap into the next row: the kernel computes them
// and they are dropped on write-back. At stride 1 there is one phase and
// the buffer is the plain padded plane.
//
// Rows. Each flagged row's nonzero weights compact to (value, offset)
// terms. Consecutive rows whose zero weights sit at the same positions
// have the same terms' offsets — units joining at one step read the same
// channels, so unpruned ones compact to one pattern — and run
// KernelTable::rows at a time through axpy_rows, which loads each term's
// input vectors once for all of them; a shorter run and a row with
// another pattern take the single-row axpy, as does every row on a tier
// without axpy_rows (rows 1). The input decides which kernel a row takes,
// and the row counters stepping_conv_multirow_rows_total and
// stepping_conv_single_rows_total count both.
//
// Bits. Each output element owns one accumulator lane in either kernel;
// its terms run in ascending (channel, kh, kw) order with zero weights
// skipped, starting from +0, then the bias (and, with no BN, ReLU) is
// applied in the store — the sequence gemm_rows_bias runs on the im2col
// matrix, whose entries are exactly the buffer values read here (padding
// included).
//
// Epilogue. A fused stage's BN and ReLU then rewrite the staging row in
// place, position by position, and its max pool reads whole windows of
// that row (rows wq floats apart) through maxpool_plane. This TU is built
// with the toolchain's baseline flags, like batchnorm.cc, so BN's
// multiply-then-add is never contracted into an FMA and rounds as the
// layer's does.
#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/ops.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace stepping {

namespace {

/// Padded-copy floats per image group (1 MiB): a whole LeNet batch, a few
/// images at VGG-16's widest layers. Bounds the buffer in training batches.
constexpr std::int64_t kGroupFloats = std::int64_t{1} << 18;

/// Upper bound on KernelTable::rows.
constexpr int kMaxRows = 8;

obs::Counter& multi_rows() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_conv_multirow_rows_total");
  return c;
}

obs::Counter& single_rows() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_conv_single_rows_total");
  return c;
}

/// Copy `count` images' listed channels into `dst` in the phase layout
/// above (zero padding included), one (image, channel) block of s*s planes
/// after another.
void copy_padded(const float* x, int count, const Conv2dGeometry& g,
                 const std::vector<int>& channels, int hq, int wq,
                 float* dst) {
  const int s = g.stride;
  const int nch = static_cast<int>(channels.size());
  const std::int64_t in_plane = static_cast<std::int64_t>(g.in_h) * g.in_w;
  const std::int64_t in_img = in_plane * g.in_c;
  const std::int64_t chan = static_cast<std::int64_t>(s) * s * hq * wq;
  parallel_for_cost(0, static_cast<std::int64_t>(count) * nch, chan,
                    [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* xc = x + (b / nch) * in_img +
                        channels[static_cast<std::size_t>(b % nch)] * in_plane;
      float* d = dst + b * chan;
      for (int ph = 0; ph < s; ++ph) {
        for (int pw = 0; pw < s; ++pw) {
          for (int q = 0; q < hq; ++q, d += wq) {
            const int iy = q * s + ph - g.pad;
            if (iy < 0 || iy >= g.in_h) {
              std::fill(d, d + wq, 0.0f);
              continue;
            }
            const float* xrow = xc + static_cast<std::int64_t>(iy) * g.in_w;
            if (s == 1) {  // wq == in_w + 2 * pad
              std::fill(d, d + g.pad, 0.0f);
              std::memcpy(d + g.pad, xrow,
                          sizeof(float) * static_cast<std::size_t>(g.in_w));
              std::fill(d + g.pad + g.in_w, d + wq, 0.0f);
              continue;
            }
            for (int t = 0; t < wq; ++t) {
              const int ix = t * s + pw - g.pad;
              d[t] = (ix >= 0 && ix < g.in_w) ? xrow[ix] : 0.0f;
            }
          }
        }
      }
    }
  });
}

/// BatchNorm2d's inference transform, then ReLU if `relu`, over `rh` rows
/// of `rw` values, `ld` floats apart.
void bn_relu_rows(float* rows, int ld, int rh, int rw, float mean, float inv,
                  float gamma, float beta, bool relu) {
  for (int r = 0; r < rh; ++r) {
    float* row = rows + static_cast<std::int64_t>(r) * ld;
    if (relu) {
      for (int c = 0; c < rw; ++c) {
        const float xv = (row[c] - mean) * inv;
        const float v = gamma * xv + beta;
        row[c] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (int c = 0; c < rw; ++c) {
        const float xv = (row[c] - mean) * inv;
        row[c] = gamma * xv + beta;
      }
    }
  }
}

}  // namespace

void conv2d_implicit(const float* x, int n, const Conv2dGeometry& g,
                     const std::vector<int>& channels, const float* w,
                     const unsigned char* rows, const float* bias,
                     const ConvEpilogue& epi,
                     std::span<const SpatialRegion> regions, float* y) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "conv2d_implicit");
  const int pk = epi.pool;
  assert(pk >= 1 && g.out_h() % pk == 0 && g.out_w() % pk == 0);
  assert(regions.size() == 1 || regions.size() == static_cast<std::size_t>(n));
  if (n <= 0) return;
  const bool bn = epi.bn_mean != nullptr;
  const microkernel::KernelTable& kt = microkernel::active_table();
  const int nr = kt.nr;
  const int k = g.kernel, s = g.stride, kk = k * k;
  const int nch = static_cast<int>(channels.size());
  const int ld = nch * kk;
  const int hq = (g.in_h + 2 * g.pad + s - 1) / s;
  const int wq = (g.in_w + 2 * g.pad + s - 1) / s;
  const std::int64_t plane = static_cast<std::int64_t>(hq) * wq;
  const std::int64_t chan = plane * s * s;
  const std::int64_t img = chan * nch;
  const int yw = g.out_w() / pk;  // y's row length (pooled when pk > 1)
  const std::int64_t out_plane = static_cast<std::int64_t>(g.out_h() / pk) * yw;

  // Each image's region (clipped; widened to whole pool windows) is the
  // flat columns from its first output to its last, [jbase, jbase + span),
  // run in chunks of two panels; the columns between its rows are computed
  // and dropped. An empty region has span 0 and its image is skipped.
  struct Window {
    SpatialRegion reg;
    int jbase, span;
  };
  ArenaScope ws;
  auto* win = static_cast<Window*>(
      ws.alloc(sizeof(Window) * static_cast<std::size_t>(n)));
  int max_span = 0;
  for (int i = 0; i < n; ++i) {
    SpatialRegion reg =
        regions[regions.size() == 1 ? 0 : static_cast<std::size_t>(i)]
            .clipped(g.out_h(), g.out_w());
    if (pk > 1 && !reg.empty()) reg = reg.pool_aligned(pk);
    win[i] = reg.empty() ? Window{} : Window{reg, reg.r0 * wq + reg.c0,
                                             (reg.height() - 1) * wq + reg.width()};
    max_span = std::max(max_span, win[i].span);
  }
  if (max_span == 0) return;
  const int chunk = 2 * nr;

  const int group = static_cast<int>(
      std::clamp<std::int64_t>(kGroupFloats / std::max<std::int64_t>(img, 1),
                               1, n));
  // The kernel's last call reads up to 2*NR - 1 floats past the last
  // column it stores; keep them inside the buffer (arena memory is not
  // poisoned, so an overrun would go unnoticed) and zeroed.
  const std::size_t copy_floats = static_cast<std::size_t>(group * img);
  float* buf = ws.alloc_floats(copy_floats + static_cast<std::size_t>(chunk));
  std::fill(buf + copy_floats, buf + copy_floats + chunk, 0.0f);
  int* tap = static_cast<int*>(ws.alloc(sizeof(int) * static_cast<std::size_t>(kk)));
  for (int kh = 0; kh < k; ++kh) {
    for (int kw = 0; kw < k; ++kw) {
      tap[kh * k + kw] = static_cast<int>(((kh % s) * s + kw % s) * plane +
                                          (kh / s) * wq + kw / s);
    }
  }
  int* list = static_cast<int*>(
      ws.alloc(sizeof(int) * static_cast<std::size_t>(g.out_c)));
  int nrows = 0;
  for (int u = 0; u < g.out_c; ++u) {
    if (rows[u] != 0) list[nrows++] = u;
  }

  const std::int64_t in_img = static_cast<std::int64_t>(g.in_c) * g.in_h * g.in_w;
  const int rpc = kt.rows;  // rows per axpy_rows call
  assert(rpc >= 1 && rpc <= kMaxRows && (rpc == 1 || kt.axpy_rows != nullptr));
  for (int i0 = 0; i0 < n; i0 += group) {
    const int count = std::min(group, n - i0);
    copy_padded(x + i0 * in_img, count, g, channels, hq, wq, buf);
    std::int64_t spans = 0;  // columns one row computes over the group
    for (int i = 0; i < count; ++i) spans += win[i0 + i].span;
    parallel_for_cost(0, nrows, static_cast<std::int64_t>(ld) * spans,
                      [&](std::int64_t l0, std::int64_t l1) {
      ArenaScope ts(Arena::this_thread());
      // rpc term slots of ld entries each, and one staging row per slot.
      float* vals = ts.alloc_floats(static_cast<std::size_t>(rpc) * ld);
      int* offs = static_cast<int*>(
          ts.alloc(sizeof(int) * static_cast<std::size_t>(rpc) * ld));
      float* stage = ts.alloc_floats(static_cast<std::size_t>(rpc) * max_span);
      int nnz[kMaxRows];
      float row_bias[kMaxRows];
      // Row list[l]'s nonzero weights as (value, offset) terms in slot s.
      const auto compact = [&](std::int64_t l, int slot) {
        const float* wrow = w + static_cast<std::int64_t>(list[l]) * ld;
        float* v = vals + static_cast<std::ptrdiff_t>(slot) * ld;
        int* o = offs + static_cast<std::ptrdiff_t>(slot) * ld;
        int z = 0;
        for (int ci = 0; ci < nch; ++ci) {
          const int base = static_cast<int>(ci * chan);
          for (int t = 0; t < kk; ++t) {
            const float av = wrow[ci * kk + t];
            if (av == 0.0f) continue;  // the GEMM's masked-weight skip
            v[z] = av;
            o[z] = base + tap[t];
            ++z;
          }
        }
        return z;
      };
      // Whether rows a and b have their zero weights at the same positions,
      // so that they compact to the same offsets.
      const auto same_zeros = [&](int a, int b) {
        const float* wa = w + static_cast<std::int64_t>(a) * ld;
        const float* wb = w + static_cast<std::int64_t>(b) * ld;
        for (int p = 0; p < ld; ++p) {
          if ((wa[p] == 0.0f) != (wb[p] == 0.0f)) return false;
        }
        return true;
      };
      // The rest of the epilogue for unit u's staging row of image i over
      // its window, then write-back.
      const auto finish = [&](int u, float* row, int i) {
        const SpatialRegion& reg = win[i0 + i].reg;
        const int rh = reg.height(), rw = reg.width();
        if (bn) {
          bn_relu_rows(row, wq, rh, rw, epi.bn_mean[u], epi.bn_inv_std[u],
                       epi.bn_gamma[u], epi.bn_beta[u], epi.relu);
        }
        float* out =
            y + (static_cast<std::int64_t>(i0 + i) * g.out_c + u) * out_plane;
        if (pk > 1) {
          maxpool_plane(row, wq, rh / pk, rw / pk, pk,
                        out + static_cast<std::int64_t>(reg.r0 / pk) * yw +
                            reg.c0 / pk,
                        yw);
          return;
        }
        for (int r = 0; r < rh; ++r) {
          std::memcpy(out + static_cast<std::int64_t>(reg.r0 + r) * yw + reg.c0,
                      row + static_cast<std::int64_t>(r) * wq,
                      sizeof(float) * static_cast<std::size_t>(rw));
        }
      };
      std::uint64_t multi = 0;
      for (std::int64_t l = l0; l < l1;) {
        // Row l and the rows after it with the same terms' offsets, up to
        // rpc: the rows whose zero weights sit where row l's do.
        int rows_here = 1;
        while (rows_here < rpc && l + rows_here < l1 &&
               same_zeros(list[l], list[l + rows_here])) {
          ++rows_here;
        }
        const bool together = rpc > 1 && rows_here == rpc;
        for (int s = 0; s < rows_here; ++s) {
          nnz[s] = compact(l + s, s);
          row_bias[s] = bias[list[l + s]];
        }
        for (int i = 0; i < count; ++i) {
          const int span = win[i0 + i].span;
          if (span == 0) continue;
          const float* src = buf + i * img + win[i0 + i].jbase;
          std::fill(stage, stage + static_cast<std::ptrdiff_t>(rows_here) * span,
                    0.0f);
          for (int j = 0; j < span; j += chunk) {
            const int wc = std::min(chunk, span - j);
            if (together) {
              kt.axpy_rows(vals, ld, offs, nnz[0], src + j, nr, stage + j, span,
                           wc, /*pair=*/wc > nr, /*epi=*/true, row_bias,
                           epi.relu && !bn);
              continue;
            }
            for (int s = 0; s < rows_here; ++s) {
              kt.axpy(vals + static_cast<std::ptrdiff_t>(s) * ld,
                      offs + static_cast<std::ptrdiff_t>(s) * ld, nnz[s],
                      src + j, nr, stage + static_cast<std::ptrdiff_t>(s) * span + j,
                      wc, /*pair=*/wc > nr, /*epi=*/true, row_bias[s],
                      epi.relu && !bn);
            }
          }
          for (int s = 0; s < rows_here; ++s) {
            finish(list[l + s], stage + static_cast<std::ptrdiff_t>(s) * span, i);
          }
        }
        if (together) multi += static_cast<std::uint64_t>(rows_here);
        l += rows_here;
      }
      multi_rows().inc(multi);
      single_rows().inc(static_cast<std::uint64_t>(l1 - l0) - multi);
    });
  }
}

}  // namespace stepping
