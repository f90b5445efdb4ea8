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
// Bits. Each output element owns one accumulator lane; its terms run in
// ascending (channel, kh, kw) order with zero weights skipped, starting
// from +0, then the bias and ReLU are applied in the store — the sequence
// gemm_rows_bias runs on the im2col matrix, whose entries are exactly the
// buffer values read here (padding included).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

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

}  // namespace

void conv2d_implicit(const float* x, int n, const Conv2dGeometry& g,
                     const std::vector<int>& channels, const float* w,
                     const unsigned char* rows, const float* bias, bool relu,
                     const SpatialRegion& region, float* y) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "conv2d_implicit");
  const SpatialRegion reg = region.clipped(g.out_h(), g.out_w());
  if (n <= 0 || reg.empty()) return;
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
  const std::int64_t out_plane = static_cast<std::int64_t>(g.out_h()) * g.out_w();

  // The region's outputs are the flat columns from its first output to its
  // last, run in chunks of two panels; the columns between its rows are
  // computed and dropped.
  const int rh = reg.height(), rw = reg.width();
  const int jbase = reg.r0 * wq + reg.c0;
  const int span = (rh - 1) * wq + rw;
  const int chunk = 2 * nr;

  const int group = static_cast<int>(
      std::clamp<std::int64_t>(kGroupFloats / std::max<std::int64_t>(img, 1),
                               1, n));
  ArenaScope ws;
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
  for (int i0 = 0; i0 < n; i0 += group) {
    const int count = std::min(group, n - i0);
    copy_padded(x + i0 * in_img, count, g, channels, hq, wq, buf);
    parallel_for_cost(0, nrows, static_cast<std::int64_t>(ld) * span * count,
                      [&](std::int64_t l0, std::int64_t l1) {
      ArenaScope ts(Arena::this_thread());
      float* vals = ts.alloc_floats(static_cast<std::size_t>(ld));
      int* offs = static_cast<int*>(
          ts.alloc(sizeof(int) * static_cast<std::size_t>(ld)));
      float* stage = ts.alloc_floats(static_cast<std::size_t>(span));
      for (std::int64_t l = l0; l < l1; ++l) {
        const int u = list[l];
        const float* wrow = w + static_cast<std::int64_t>(u) * ld;
        int nnz = 0;
        for (int ci = 0; ci < nch; ++ci) {
          const int base = static_cast<int>(ci * chan);
          for (int t = 0; t < kk; ++t) {
            const float av = wrow[ci * kk + t];
            if (av == 0.0f) continue;  // the GEMM's masked-weight skip
            vals[nnz] = av;
            offs[nnz] = base + tap[t];
            ++nnz;
          }
        }
        for (int i = 0; i < count; ++i) {
          const float* src = buf + i * img + jbase;
          std::fill(stage, stage + span, 0.0f);
          for (int j = 0; j < span; j += chunk) {
            const int wc = std::min(chunk, span - j);
            kt.axpy(vals, offs, nnz, src + j, nr, stage + j, wc,
                    /*pair=*/wc > nr, /*epi=*/true, bias[u], relu);
          }
          float* out = y + (static_cast<std::int64_t>(i0 + i) * g.out_c + u) *
                               out_plane;
          for (int r = 0; r < rh; ++r) {
            std::memcpy(out + static_cast<std::int64_t>(reg.r0 + r) * g.out_w() +
                            reg.c0,
                        stage + static_cast<std::int64_t>(r) * wq,
                        sizeof(float) * static_cast<std::size_t>(rw));
          }
        }
      }
    });
  }
}

}  // namespace stepping
