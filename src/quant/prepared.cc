#include "quant/prepared.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace stepping::quant {

namespace {

static_assert(sizeof(int) == sizeof(std::int32_t),
              "unit lists are stored as i32 words");

obs::Counter& quant_packs() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_quant_packs_total");
  return c;
}

obs::Counter& quant_forwards() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_quant_int8_forwards_total");
  return c;
}

/// Scratch bound of one conv GEMM: images are taken in groups whose byte
/// planes, GEMM rows and accumulators fit in this many bytes (a serving
/// batch of LeNet-3C1L or VGG-16 is one group).
constexpr std::int64_t kGroupBytes = std::int64_t{4} << 20;

/// Blob layout (raw 4-byte words inside the float vector, written with
/// memcpy): [packed i8 panels, rounded up to a float boundary][wsum i32 * n]
/// [scale f32 * n][units i32 * n][groups i32 * k / group_cols].
std::size_t packed_floats(int k, int n, int nr) {
  return (i8gemm_packed_bytes(k, n, nr) + sizeof(float) - 1) / sizeof(float);
}

PreparedInt8 view_blob(std::shared_ptr<const std::vector<float>> blob, int n,
                       int k, int group_cols, const I8GemmKernel& kr) {
  PreparedInt8 out;
  const float* words = blob->data() + packed_floats(k, n, kr.nr);
  out.packed = reinterpret_cast<const std::int8_t*>(blob->data());
  out.wsum = reinterpret_cast<const std::int32_t*>(words);
  out.scale = words + n;
  out.units = reinterpret_cast<const std::int32_t*>(words + 2 * n);
  out.groups = reinterpret_cast<const std::int32_t*>(words + 3 * n);
  out.kernel = &kr;
  out.n = n;
  out.k = k;
  out.group_cols = group_cols;
  out.blob = std::move(blob);
  return out;
}

void put_words(float* dst, const void* src, std::size_t count) {
  if (count > 0) std::memcpy(dst, src, count * sizeof(float));
}

/// The conv's GEMM rows of output rows [b0, b1) (b = image * oh + oy): one
/// row of k4 bytes per output position, holding its window's kw-byte runs
/// in (channel, kh) order — run t starts run[t] bytes into the window, and
/// the image's planes are img_bytes apart — then zero padding past k. A
/// wide move's spill past its run is overwritten by the next run or the
/// padding, so the first `wide` runs, whose spill stays inside the row,
/// move 8 bytes at once. Everything is a parameter: byte stores may alias
/// anything, and parameters stay in registers.
void gather_windows(const std::uint8_t* planes, std::int64_t img_bytes, int oh,
                    int ow, int s, int wp, const std::int64_t* run, int runs,
                    int wide, int kw, int k, int k4, std::int64_t b0,
                    std::int64_t b1, std::uint8_t* a) {
  for (std::int64_t b = b0; b < b1; ++b) {
    const std::uint8_t* win = planes + (b / oh) * img_bytes + (b % oh) * s * wp;
    std::uint8_t* dst = a + b * ow * k4;
    for (int ox = 0; ox < ow; ++ox, win += s, dst += k4) {
      int t = 0;
      for (; t < wide; ++t) {
        std::uint64_t v = 0;
        std::memcpy(&v, win + run[t], 8);
        std::memcpy(dst + t * kw, &v, 8);
      }
      for (; t < runs; ++t) {
        for (int q = 0; q < kw; ++q) dst[t * kw + q] = win[run[t] + q];
      }
      for (int p = k; p < k4; ++p) dst[p] = 0;
    }
  }
}

}  // namespace

PreparedInt8 prepare_int8_weights(const float* w, int cols, int group_cols,
                                  const std::vector<int>& units,
                                  const std::vector<int>& groups) {
  const I8GemmKernel& kr = i8gemm_kernel();
  const int n = static_cast<int>(units.size());
  const int ng = static_cast<int>(groups.size());
  const int k = ng * group_cols;
  STEPPING_TRACE_SCOPE_CAT("kernel", "quant.prepare");
  ArenaScope ws;
  float* wt = ws.alloc_floats(static_cast<std::size_t>(n) * k);
  for (int j = 0; j < n; ++j) {
    const float* src = w + static_cast<std::size_t>(units[j]) * cols;
    for (int t = 0; t < ng; ++t) {
      std::memcpy(wt + static_cast<std::size_t>(j) * k + t * group_cols,
                  src + static_cast<std::size_t>(groups[t]) * group_cols,
                  sizeof(float) * static_cast<std::size_t>(group_cols));
    }
  }
  WeightQuant wq;
  quantize_weights_per_channel(wt, n, k, &wq);

  const std::size_t pf = packed_floats(k, n, kr.nr);
  const std::size_t un = static_cast<std::size_t>(n);
  auto blob = std::make_shared<std::vector<float>>(pf + 3 * un + ng, 0.0f);
  float* words = blob->data();
  i8gemm_pack(wq.q.data(), k, n, kr.nr, reinterpret_cast<std::int8_t*>(words));
  put_words(words + pf, wq.wsum.data(), un);
  put_words(words + pf + un, wq.scale.data(), un);
  put_words(words + pf + 2 * un, units.data(), un);
  put_words(words + pf + 3 * un, groups.data(), static_cast<std::size_t>(ng));
  quant_packs().inc();
  return view_blob(std::move(blob), n, k, group_cols, kr);
}

void int8_dense_forward(const float* x, int m, int cols,
                        const PreparedInt8& pw, const ActQuant& aq,
                        const float* bias, bool relu, int out_units, float* y) {
  quant_forwards().inc();
  const int k4 = i8gemm_k4(pw.k);
  const int ng = pw.k / pw.group_cols;
  const float inv = 1.0f / aq.scale;
  ArenaScope ws;
  auto* a = static_cast<std::uint8_t*>(
      ws.alloc(static_cast<std::size_t>(m) * k4));
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * cols;
    std::uint8_t* dst = a + static_cast<std::size_t>(i) * k4;
    // Each run of consecutive groups is one contiguous slice of the row.
    for (int t = 0; t < ng;) {
      int e = t + 1;
      while (e < ng && pw.groups[e] == pw.groups[e - 1] + 1) ++e;
      const int len = (e - t) * pw.group_cols;
      detail::quantize_row(xr + static_cast<std::size_t>(pw.groups[t]) *
                                    pw.group_cols,
                           len, len, inv, aq.zero_point,
                           dst + t * pw.group_cols);
      t = e;
    }
    std::memset(dst + pw.k, 0, static_cast<std::size_t>(k4 - pw.k));
  }
  auto* acc = static_cast<std::int32_t*>(
      ws.alloc(static_cast<std::size_t>(m) * pw.n * sizeof(std::int32_t)));
  i8gemm_run(*pw.kernel, a, m, pw.k, pw.packed, pw.n, acc);
  dequantize_bias(acc, m, pw.n, aq, pw.scale, pw.wsum, pw.units, bias, relu,
                  /*spatial=*/1, out_units, y);
}

void int8_conv_forward(const float* x, int n, const Conv2dGeometry& g,
                       const PreparedInt8& pw, const ActQuant& aq,
                       const float* bias, bool relu, float* y) {
  quant_forwards().inc();
  if (n <= 0 || pw.n == 0) return;  // nothing computed: y stays as it is
  STEPPING_TRACE_SCOPE_CAT("kernel", "quant.conv");
  const int kw = g.kernel, s = g.stride;
  const int nch = pw.k / pw.group_cols;
  const int hp = g.in_h + 2 * g.pad, wp = g.in_w + 2 * g.pad;
  const std::int64_t plane = static_cast<std::int64_t>(hp) * wp;
  const int oh = g.out_h(), ow = g.out_w();
  const int spatial = oh * ow;
  const int k4 = i8gemm_k4(pw.k);
  const std::int64_t in_plane = static_cast<std::int64_t>(g.in_h) * g.in_w;
  const std::int64_t in_img = in_plane * g.in_c;
  const std::int64_t out_img = static_cast<std::int64_t>(g.out_c) * spatial;
  const std::int64_t per_image =
      nch * plane + static_cast<std::int64_t>(spatial) * (k4 + 4 * pw.n);
  const int group = static_cast<int>(std::clamp<std::int64_t>(
      kGroupBytes / std::max<std::int64_t>(per_image, 1), 1, n));
  const std::uint8_t zp = static_cast<std::uint8_t>(aq.zero_point);
  const float inv = 1.0f / aq.scale;

  ArenaScope ws;
  // Windows of up to 8 bytes are copied with one 8-byte move, which may
  // read up to 7 bytes past the last plane.
  const std::size_t plane_bytes = static_cast<std::size_t>(group * nch * plane);
  auto* planes = static_cast<std::uint8_t*>(ws.alloc(plane_bytes + 8));
  std::memset(planes + plane_bytes, 0, 8);
  auto* a = static_cast<std::uint8_t*>(
      ws.alloc(static_cast<std::size_t>(group) * spatial * k4));
  auto* acc = static_cast<std::int32_t*>(ws.alloc(
      static_cast<std::size_t>(group) * spatial * pw.n * sizeof(std::int32_t)));
  // Window run t = (channel c, row kh) starts run[t] bytes into the window.
  const int runs = nch * kw;
  auto* run = static_cast<std::int64_t*>(
      ws.alloc(sizeof(std::int64_t) * static_cast<std::size_t>(runs)));
  for (int t = 0; t < runs; ++t) run[t] = (t / kw) * plane + (t % kw) * wp;
  const int wide = kw <= 8 && k4 >= 8 ? std::min(runs, (k4 - 8) / kw + 1) : 0;

  for (int i0 = 0; i0 < n; i0 += group) {
    const int count = std::min(group, n - i0);
    // Each readable channel of each image, quantized once into its padded
    // plane; the padding is the zero point, the code of 0.0f.
    parallel_for_cost(0, static_cast<std::int64_t>(count) * nch, plane,
                      [&](std::int64_t b0, std::int64_t b1) {
      for (std::int64_t b = b0; b < b1; ++b) {
        const float* src = x + (i0 + b / nch) * in_img +
                           pw.groups[b % nch] * in_plane;
        std::uint8_t* dst = planes + b * plane;
        std::memset(dst, zp, static_cast<std::size_t>(g.pad) * wp);
        for (int iy = 0; iy < g.in_h; ++iy) {
          std::uint8_t* row = dst + static_cast<std::int64_t>(g.pad + iy) * wp;
          std::memset(row, zp, static_cast<std::size_t>(g.pad));
          detail::quantize_row(src + static_cast<std::int64_t>(iy) * g.in_w,
                               g.in_w, g.in_w, inv, aq.zero_point,
                               row + g.pad);
          std::memset(row + g.pad + g.in_w, zp, static_cast<std::size_t>(g.pad));
        }
        std::memset(dst + static_cast<std::int64_t>(g.pad + g.in_h) * wp, zp,
                    static_cast<std::size_t>(g.pad) * wp);
      }
    });
    const int rows = count * spatial;
    parallel_for_cost(0, static_cast<std::int64_t>(count) * oh,
                      static_cast<std::int64_t>(ow) * k4,
                      [&](std::int64_t b0, std::int64_t b1) {
      gather_windows(planes, nch * plane, oh, ow, s, wp, run, runs, wide, kw,
                     pw.k, k4, b0, b1, a);
    });
    i8gemm_run(*pw.kernel, a, rows, pw.k, pw.packed, pw.n, acc);
    dequantize_bias(acc, rows, pw.n, aq, pw.scale, pw.wsum, pw.units, bias,
                    relu, spatial, g.out_c, y + i0 * out_img);
  }
}

}  // namespace stepping::quant
