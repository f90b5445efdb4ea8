#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/trace.h"
#include "tensor/gemm_kernel.h"
#include "util/thread_pool.h"

namespace stepping {

// ---------------------------------------------------------------------------
// GEMM. The Tensor wrappers validate shapes and forward to the dispatch
// layer in gemm_kernel.h, which routes between the cache-blocked
// panel-packed path and the ISA tier's fallback loops.
//
// All kernels are partitioned over output rows of C: each row is owned by
// exactly one parallel_for chunk, and per output element the accumulation
// runs in ascending contraction order in both paths, so results are bitwise
// identical for any thread count AND any block size, and the subnet reuse
// invariants hold exactly.
// ---------------------------------------------------------------------------

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm");
  assert(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  assert(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  gemm(a.data(), b.data(), c.data(), m, k, n, accumulate);
}

void gemm_tn(const Tensor& at, const Tensor& b, Tensor& c, bool accumulate) {
  // C(MxN) = At^T * B, At is (K x M), B is (K x N).
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm_tn");
  assert(at.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const int k = at.dim(0), m = at.dim(1), n = b.dim(1);
  assert(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  gemm_tn(at.data(), b.data(), c.data(), m, k, n, accumulate);
}

void gemm_nt(const Tensor& a, const Tensor& bt, Tensor& c, bool accumulate) {
  // C(MxN) = A(MxK) * Bt^T, Bt is (N x K).
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm_nt");
  assert(a.rank() == 2 && bt.rank() == 2 && c.rank() == 2);
  const int m = a.dim(0), k = a.dim(1), n = bt.dim(0);
  assert(bt.dim(1) == k && c.dim(0) == m && c.dim(1) == n);
  gemm_nt(a.data(), bt.data(), c.data(), m, k, n, accumulate);
}

void gemm_nt_rows_acc(const Tensor& a, const Tensor& bt, Tensor& c,
                      const unsigned char* row_active) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm_nt_rows_acc");
  assert(a.rank() == 2 && bt.rank() == 2 && c.rank() == 2);
  const int m = a.dim(0), k = a.dim(1), n = bt.dim(0);
  assert(bt.dim(1) == k && c.dim(0) == m && c.dim(1) == n);
  gemm_nt_rows_acc(a.data(), bt.data(), c.data(), m, k, n, row_active);
}

void gemm_tn_rows(const Tensor& at, const Tensor& b, Tensor& c,
                  const unsigned char* k_active) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm_tn_rows");
  assert(at.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const int k = at.dim(0), m = at.dim(1), n = b.dim(1);
  assert(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  gemm_tn_rows(at.data(), b.data(), c.data(), m, k, n, k_active);
}

void gemm_nt_cols_bias(const Tensor& a, const Tensor& bt, Tensor& c,
                       const unsigned char* col_active, const float* bias,
                       bool relu) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm_nt_cols_bias");
  assert(a.rank() == 2 && bt.rank() == 2 && c.rank() == 2);
  const int m = a.dim(0), k = a.dim(1), n = bt.dim(0);
  assert(bt.dim(1) == k && c.dim(0) == m && c.dim(1) == n);
  gemm_nt_cols_bias(a.data(), bt.data(), c.data(), m, k, n, col_active, bias,
                    relu);
}

void gemm_rows_bias(const Tensor& a, const Tensor& b, Tensor& c,
                    const unsigned char* row_active, const float* bias,
                    bool relu) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm_rows_bias");
  assert(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  assert(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  gemm_rows_bias(a.data(), b.data(), c.data(), m, k, n, row_active, bias,
                 relu);
}

// ---------------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------------

namespace {

/// 1-D receptive-field intersection: output coords y (stride s, pad p,
/// kernel k) reading any input coord in [i0, i1). Empty input -> empty.
void dirty_out_axis(int i0, int i1, int k, int s, int p, int out_n, int* y0,
                    int* y1) {
  if (i1 <= i0) {
    *y0 = *y1 = 0;
    return;
  }
  // Overlap iff y*s - p < i1 AND y*s - p + k > i0.
  //  * first dirty y: smallest y with y*s > i0 - k + p;
  //  * first clean y after: smallest y with y*s - p >= i1.
  const int lo_num = i0 - k + p;  // need y*s > lo_num
  int lo = lo_num < 0 ? 0 : lo_num / s + 1;
  const int hi_num = i1 + p;  // need y*s >= hi_num to be clean
  int hi = hi_num <= 0 ? 0 : (hi_num + s - 1) / s;
  if (lo < 0) lo = 0;
  if (hi > out_n) hi = out_n;
  *y0 = lo;
  *y1 = hi < lo ? lo : hi;
}

}  // namespace

// Each row is written by exactly one chunk and holds pure copies, so
// parallel lowering is bitwise identical to the serial loop.
void im2col(const float* x, const Conv2dGeometry& g, float* cols) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "im2col");
  const int oh = g.out_h(), ow = g.out_w();
  const std::int64_t spatial = static_cast<std::int64_t>(oh) * ow;
  const int kk = g.kernel * g.kernel;
  // Stride-1 rows at least 8 wide are copied as a left padding run, one
  // memcpy and a right padding run: up to 4x faster than the per-element
  // loop from 8 to 32 columns. On narrower rows (VGG-16's 4- and 2-wide
  // stages) the calls cost up to 2x more than that loop, so those keep it;
  // with 3x3 kernels the two cross at 7-8 columns on an AVX-512 Xeon.
  const bool copy_runs = g.stride == 1 && ow >= 8;
  parallel_for_cost(0, static_cast<std::int64_t>(g.in_c) * kk, spatial,
                    [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const int c = static_cast<int>(r / kk);
      const int kh = static_cast<int>((r / g.kernel) % g.kernel);
      const int kw = static_cast<int>(r % g.kernel);
      const float* xc = x + static_cast<std::size_t>(c) * g.in_h * g.in_w;
      float* crow = cols + static_cast<std::size_t>(r) * spatial;
      // At stride 1, output column xo reads input column xo + off: columns
      // [lo, hi) read inside the input row, the rest are padding.
      const int off = kw - g.pad;
      const int lo = std::clamp(-off, 0, ow);
      const int hi = std::clamp(g.in_w - off, lo, ow);
      for (int y = 0; y < oh; ++y) {
        const int iy = y * g.stride + kh - g.pad;
        float* orow = crow + static_cast<std::size_t>(y) * ow;
        if (iy < 0 || iy >= g.in_h) {
          std::memset(orow, 0, sizeof(float) * static_cast<std::size_t>(ow));
          continue;
        }
        const float* xrow = xc + static_cast<std::size_t>(iy) * g.in_w;
        if (copy_runs) {
          std::fill(orow, orow + lo, 0.0f);
          if (hi > lo) {
            std::memcpy(orow + lo, xrow + (lo + off),
                        sizeof(float) * static_cast<std::size_t>(hi - lo));
          }
          std::fill(orow + hi, orow + ow, 0.0f);
          continue;
        }
        for (int xo = 0; xo < ow; ++xo) {
          const int ix = xo * g.stride + kw - g.pad;
          orow[xo] = (ix >= 0 && ix < g.in_w) ? xrow[ix] : 0.0f;
        }
      }
    }
  });
}

SpatialRegion conv_dirty_out_region(const Conv2dGeometry& g,
                                    const SpatialRegion& in) {
  SpatialRegion out;
  const SpatialRegion clipped = in.clipped(g.in_h, g.in_w);
  dirty_out_axis(clipped.r0, clipped.r1, g.kernel, g.stride, g.pad, g.out_h(),
                 &out.r0, &out.r1);
  dirty_out_axis(clipped.c0, clipped.c1, g.kernel, g.stride, g.pad, g.out_w(),
                 &out.c0, &out.c1);
  if (out.empty()) return SpatialRegion{};
  return out;
}

// col2im was left serial in ISSUE 1 because its scatter-add overlaps across
// patch rows. The overlap is confined to ONE input channel, though: patch
// row r = (c*k + kh)*k + kw only ever writes into channel c's plane, so
// partitioning over channels gives every thread a private accumulation
// region of the output — the per-thread accumulation buffer degenerates to
// a disjoint slice of x itself (no scratch copies, no cross-thread
// reduction), and within a channel each thread applies the contributions in
// exactly the serial (kh, kw, y, x) order. Result: bitwise identical to the
// serial loop for any thread count, same as the rest of the kernel family.
void col2im(const float* cols, const Conv2dGeometry& g, float* x) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "col2im");
  const int oh = g.out_h(), ow = g.out_w();
  const int spatial = oh * ow;
  const std::int64_t kk = static_cast<std::int64_t>(g.kernel) * g.kernel;
  parallel_for_cost(0, g.in_c, kk * spatial,
                    [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      float* xc = x + static_cast<std::size_t>(c) * g.in_h * g.in_w;
      std::memset(xc, 0,
                  sizeof(float) * static_cast<std::size_t>(g.in_h) * g.in_w);
      for (int kh = 0; kh < g.kernel; ++kh) {
        for (int kw = 0; kw < g.kernel; ++kw) {
          const float* crow =
              cols + (static_cast<std::size_t>(c) * g.kernel * g.kernel +
                      static_cast<std::size_t>(kh) * g.kernel + kw) *
                         spatial;
          for (int y = 0; y < oh; ++y) {
            const int iy = y * g.stride + kh - g.pad;
            if (iy < 0 || iy >= g.in_h) continue;
            float* xrow = xc + static_cast<std::size_t>(iy) * g.in_w;
            const float* orow = crow + static_cast<std::size_t>(y) * ow;
            for (int xo = 0; xo < ow; ++xo) {
              const int ix = xo * g.stride + kw - g.pad;
              if (ix >= 0 && ix < g.in_w) xrow[ix] += orow[xo];
            }
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Pooling. The plane loops are partitioned over (image, channel) planes:
// every output plane (and, for the backward scatter, every input plane —
// argmax indices never cross planes) is owned by exactly one thread, and
// within a plane the serial order is kept, so results are bitwise identical
// to serial for any thread count.
// ---------------------------------------------------------------------------

void maxpool_plane(const float* x, std::int64_t ldx, int oh, int ow, int k,
                   float* y, std::int64_t ldy) {
  // `v > m ? v : m` keeps the first strict maximum and never takes a NaN,
  // exactly the branchy scan's test; written as a select it vectorizes.
  constexpr float kStart = -std::numeric_limits<float>::infinity();
  if (k == 2) {
    for (int r = 0; r < oh; ++r) {
      const float* a = x + 2 * r * ldx;
      const float* b = a + ldx;
      float* out = y + r * ldy;
      for (int c = 0; c < ow; ++c) {
        float m = kStart;
        float v = a[2 * c];
        m = v > m ? v : m;
        v = a[2 * c + 1];
        m = v > m ? v : m;
        v = b[2 * c];
        m = v > m ? v : m;
        v = b[2 * c + 1];
        m = v > m ? v : m;
        out[c] = m;
      }
    }
    return;
  }
  for (int r = 0; r < oh; ++r) {
    float* out = y + r * ldy;
    for (int c = 0; c < ow; ++c) {
      float m = kStart;
      for (int dy = 0; dy < k; ++dy) {
        const float* row = x + (static_cast<std::int64_t>(r) * k + dy) * ldx +
                           static_cast<std::int64_t>(c) * k;
        for (int dx = 0; dx < k; ++dx) m = row[dx] > m ? row[dx] : m;
      }
      out[c] = m;
    }
  }
}

namespace {

/// The training max-pool scan: each window's first strict maximum in
/// (dy, dx) order, as maxpool_plane takes it, and its flat input index for
/// the backward pass.
void maxpool_scan_argmax(const Tensor& x, int k, Tensor& y, int* pam) {
  const int h = x.dim(2), w = x.dim(3);
  const int oh = y.dim(2), ow = y.dim(3);
  const float* px = x.data();
  float* py = y.data();
  const int ospatial = oh * ow;
  parallel_for_cost(0, static_cast<std::int64_t>(y.dim(0)) * y.dim(1),
                    static_cast<std::int64_t>(ospatial) * k * k,
                    [&](std::int64_t pl0, std::int64_t pl1) {
    for (std::int64_t pl = pl0; pl < pl1; ++pl) {
      const float* plane = px + static_cast<std::size_t>(pl) * h * w;
      std::int64_t oi = pl * ospatial;
      for (int yy = 0; yy < oh; ++yy) {
        for (int xx = 0; xx < ow; ++xx) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = 0;
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              const int iy = yy * k + dy, ix = xx * k + dx;
              const int idx = iy * w + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          py[oi] = best;
          pam[oi] = static_cast<int>(static_cast<std::size_t>(pl) * h * w) +
                    best_idx;
          ++oi;
        }
      }
    }
  });
}

}  // namespace

void maxpool_forward(const Tensor& x, int k, Tensor& y,
                     std::vector<int>* argmax) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "maxpool");
  assert(x.rank() == 4);
  const int h = x.dim(2), w = x.dim(3);
  const int oh = h / k, ow = w / k;
  assert(oh > 0 && ow > 0);
  y = Tensor({x.dim(0), x.dim(1), oh, ow});
  if (argmax == nullptr) {
    const float* px = x.data();
    float* py = y.data();
    const std::int64_t in_plane = static_cast<std::int64_t>(h) * w;
    const std::int64_t out_plane = static_cast<std::int64_t>(oh) * ow;
    parallel_for_cost(0, static_cast<std::int64_t>(x.dim(0)) * x.dim(1),
                      out_plane * k * k,
                      [&](std::int64_t pl0, std::int64_t pl1) {
      for (std::int64_t pl = pl0; pl < pl1; ++pl) {
        maxpool_plane(px + pl * in_plane, w, oh, ow, k, py + pl * out_plane, ow);
      }
    });
    return;
  }
  argmax->resize(static_cast<std::size_t>(y.numel()));
  maxpool_scan_argmax(x, k, y, argmax->data());
}

void maxpool_backward(const Tensor& grad_y, const std::vector<int>& argmax,
                      Tensor& grad_x) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "maxpool_backward");
  grad_x.zero();
  float* gx = grad_x.data();
  const float* gy = grad_y.data();
  const int* pam = argmax.data();
  // Pool windows are disjoint (stride == k), so no two outputs share an
  // argmax target; any partition of the output range scatters to disjoint
  // grad_x cells. Partitioning at plane granularity additionally keeps each
  // thread's writes within its own input planes (cache friendliness); the
  // plane size divides grad_y.numel() exactly.
  const int ospatial = grad_y.dim(2) * grad_y.dim(3);
  parallel_for_cost(0, static_cast<std::int64_t>(grad_y.dim(0)) * grad_y.dim(1),
                    ospatial, [&](std::int64_t pl0, std::int64_t pl1) {
    for (std::int64_t i = pl0 * ospatial; i < pl1 * ospatial; ++i) {
      gx[pam[static_cast<std::size_t>(i)]] += gy[i];
    }
  });
}

// ---------------------------------------------------------------------------
// Softmax / elementwise
// ---------------------------------------------------------------------------

void softmax_rows(const Tensor& logits, Tensor& probs) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "softmax_rows");
  assert(logits.rank() == 2);
  const int n = logits.dim(0), c = logits.dim(1);
  if (probs.shape() != logits.shape()) probs = Tensor(logits.shape());
  const float* pl = logits.data();
  float* pp = probs.data();
  // exp() is ~50x a fused multiply-add; weight the per-row cost accordingly.
  parallel_for_cost(0, n, static_cast<std::int64_t>(c) * 50,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* row = pl + static_cast<std::size_t>(i) * c;
      float* out = pp + static_cast<std::size_t>(i) * c;
      float mx = row[0];
      for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float denom = 0.0f;
      for (int j = 0; j < c; ++j) {
        out[j] = std::exp(row[j] - mx);
        denom += out[j];
      }
      const float inv = 1.0f / denom;
      for (int j = 0; j < c; ++j) out[j] *= inv;
    }
  });
}

namespace {

/// y = x where x > 0, else +0, and with kRecord the backward mask x > 0; a
/// template parameter so the inference loop carries no mask store.
template <bool kRecord>
void relu_loop(const float* px, float* py, unsigned char* pm, std::int64_t n) {
  parallel_for_cost(0, n, 1, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const bool pos = px[i] > 0.0f;
      if constexpr (kRecord) pm[i] = pos ? 1 : 0;
      py[i] = pos ? px[i] : 0.0f;
    }
  });
}

}  // namespace

void relu_forward(const Tensor& x, Tensor& y,
                  std::vector<unsigned char>* mask) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "relu_forward");
  if (y.shape() != x.shape()) y = Tensor(x.shape());
  if (mask == nullptr) {
    relu_loop<false>(x.data(), y.data(), nullptr, x.numel());
    return;
  }
  mask->resize(static_cast<std::size_t>(x.numel()));
  relu_loop<true>(x.data(), y.data(), mask->data(), x.numel());
}

void relu_backward(const Tensor& grad_y, const std::vector<unsigned char>& mask,
                   Tensor& grad_x) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "relu_backward");
  if (grad_x.shape() != grad_y.shape()) grad_x = Tensor(grad_y.shape());
  const float* gy = grad_y.data();
  float* gx = grad_x.data();
  const unsigned char* pm = mask.data();
  parallel_for_cost(0, grad_y.numel(), 1,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      gx[i] = pm[i] ? gy[i] : 0.0f;
    }
  });
}

// ---------------------------------------------------------------------------
// Initialization fills
// ---------------------------------------------------------------------------

void fill_kaiming_normal(Tensor& t, int fan_in, Rng& rng) {
  assert(fan_in > 0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  fill_normal(t, 0.0f, stddev, rng);
}

void fill_uniform(Tensor& t, float lo, float hi, Rng& rng) {
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
}

void fill_normal(Tensor& t, float mean, float stddev, Rng& rng) {
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
}

}  // namespace stepping
