#include "quant/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace stepping::quant {

int quantize_value(float x, float inv_scale, int zp, int lo, int hi) {
  if (std::isnan(x)) return zp;
  // nearbyintf under the default (never changed in this codebase) FP
  // environment rounds half to even — the documented tie semantics.
  const float r = std::nearbyintf(x * inv_scale);
  // Saturate BEFORE the int cast (out-of-range float->int is UB); +/-inf
  // lands here too.
  if (r >= static_cast<float>(hi - zp)) return hi;
  if (r <= static_cast<float>(lo - zp)) return lo;
  return zp + static_cast<int>(r);
}

namespace {

void quantize_weights(const float* wt, int n, int k, bool per_channel,
                      WeightQuant* out) {
  out->q.assign(static_cast<std::size_t>(n) * k, 0);
  out->scale.assign(static_cast<std::size_t>(n), 1.0f);
  out->wsum.assign(static_cast<std::size_t>(n), 0);

  float tensor_absmax = 0.0f;
  if (!per_channel) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(n) * k; ++i) {
      tensor_absmax = std::max(tensor_absmax, std::fabs(wt[i]));
    }
  }
  for (int j = 0; j < n; ++j) {
    const float* row = wt + static_cast<std::size_t>(j) * k;
    float absmax = tensor_absmax;
    if (per_channel) {
      absmax = 0.0f;
      for (int p = 0; p < k; ++p) absmax = std::max(absmax, std::fabs(row[p]));
    }
    const float sw = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    const float inv = 1.0f / sw;
    out->scale[static_cast<std::size_t>(j)] = sw;
    std::int8_t* qrow = out->q.data() + static_cast<std::size_t>(j) * k;
    std::int32_t sum = 0;
    for (int p = 0; p < k; ++p) {
      const int q = quantize_value(row[p], inv, 0, -127, 127);
      qrow[p] = static_cast<std::int8_t>(q);
      sum += q;
    }
    out->wsum[static_cast<std::size_t>(j)] = sum;
  }
}

}  // namespace

namespace detail {

/// Quantize one contiguous row of `k` floats to u8 codes, zero-padding to
/// `k4`. Bit-exact with quantize_value on every input: _mm_cvtps_epi32
/// rounds half to even under the default FP environment (the same tie rule
/// as nearbyintf), saturation happens in the integer packs before any
/// narrowing cast, and NaN lanes are forced to the zero point. SSE2 is part
/// of the x86-64 baseline, so there is exactly one compiled behavior — the
/// zero cross-provider error bound does not depend on the dispatch tier.
void quantize_row(const float* row, int k, int k4, float inv, int zp,
                  std::uint8_t* dst) {
  int p = 0;
#if defined(__SSE2__)
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 vlo = _mm_set1_ps(-30000.0f);
  const __m128 vhi = _mm_set1_ps(30000.0f);
  const __m128i vzp = _mm_set1_epi32(zp);
  const __m128i vcap = _mm_set1_epi8(127);
  for (; p + 8 <= k; p += 8) {
    __m128 a = _mm_mul_ps(_mm_loadu_ps(row + p), vinv);
    __m128 b = _mm_mul_ps(_mm_loadu_ps(row + p + 4), vinv);
    const __m128i nan_a = _mm_castps_si128(_mm_cmpunord_ps(a, a));
    const __m128i nan_b = _mm_castps_si128(_mm_cmpunord_ps(b, b));
    // Clamp so cvtps never produces the 0x80000000 indefinite; values this
    // far out saturate to 0/127 either way, and NaN lanes (min/max pass the
    // second operand through) are overwritten with zp below.
    a = _mm_min_ps(_mm_max_ps(a, vlo), vhi);
    b = _mm_min_ps(_mm_max_ps(b, vlo), vhi);
    __m128i qa = _mm_add_epi32(_mm_cvtps_epi32(a), vzp);
    __m128i qb = _mm_add_epi32(_mm_cvtps_epi32(b), vzp);
    qa = _mm_or_si128(_mm_andnot_si128(nan_a, qa), _mm_and_si128(nan_a, vzp));
    qb = _mm_or_si128(_mm_andnot_si128(nan_b, qb), _mm_and_si128(nan_b, vzp));
    // packs saturates epi32->epi16 (range-safe after the clamp), packus
    // floors negatives at 0, and the unsigned min applies the 127 cap.
    const __m128i w = _mm_packs_epi32(qa, qb);
    const __m128i byte = _mm_min_epu8(_mm_packus_epi16(w, w), vcap);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + p), byte);
  }
#endif
  for (; p < k; ++p) {
    dst[p] =
        static_cast<std::uint8_t>(quantize_value(row[p], inv, zp, 0, 127));
  }
  for (int q = k; q < k4; ++q) dst[q] = 0;  // pairs with zero weight pads
}

}  // namespace detail

using detail::quantize_row;

void quantize_weights_per_channel(const float* wt, int n, int k,
                                  WeightQuant* out) {
  quantize_weights(wt, n, k, /*per_channel=*/true, out);
}

void quantize_weights_per_tensor(const float* wt, int n, int k,
                                 WeightQuant* out) {
  quantize_weights(wt, n, k, /*per_channel=*/false, out);
}

ActQuant activation_params(float absmax, bool nonneg) {
  ActQuant aq;
  aq.zero_point = nonneg ? 0 : 64;
  const float steps = nonneg ? 127.0f : 63.0f;
  aq.scale = absmax > 0.0f ? absmax / steps : 1.0f;
  return aq;
}

void quantize_activations(const float* x, int m, int k, int k4,
                          const ActQuant& aq, std::uint8_t* out) {
  const float inv = 1.0f / aq.scale;
  const int zp = aq.zero_point;
  for (int i = 0; i < m; ++i) {
    quantize_row(x + static_cast<std::size_t>(i) * k, k, k4, inv, zp,
                 out + static_cast<std::size_t>(i) * k4);
  }
}

void dequantize_bias(const std::int32_t* acc, int m, int n, const ActQuant& aq,
                     const float* scale, const std::int32_t* wsum,
                     const std::int32_t* units, const float* bias, bool relu,
                     int spatial, int out_units, float* y) {
  const float sa = aq.scale;
  const std::int32_t zp = aq.zero_point;
  // Positions in blocks, so a block's accumulator rows stay cached while
  // every unit's plane reads them.
  constexpr int kBlock = 64;
  for (int img = 0; img < m / spatial; ++img) {
    const std::int32_t* ai = acc + static_cast<std::size_t>(img) * spatial * n;
    for (int s0 = 0; s0 < spatial; s0 += kBlock) {
      const int s1 = std::min(spatial, s0 + kBlock);
      for (int j = 0; j < n; ++j) {
        const float cs = sa * scale[j];
        const std::int32_t comp = zp * wsum[j];
        const float b = bias[units[j]];
        float* yr = y + (static_cast<std::size_t>(img) * out_units + units[j]) *
                            spatial;
        for (int s = s0; s < s1; ++s) {
          const std::int32_t centered =
              ai[static_cast<std::size_t>(s) * n + j] - comp;
          float v = static_cast<float>(centered) * cs + b;
          if (relu && v < 0.0f) v = 0.0f;
          yr[s] = v;
        }
      }
    }
  }
}

}  // namespace stepping::quant
