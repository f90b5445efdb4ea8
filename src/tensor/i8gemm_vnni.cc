// AVX512-VNNI int8 GEMM kernel (vpdpbusd). Compiled with -mavx512f
// -mavx512vnni; only reached when cpuid reports avx512vnni. nr = 16: one
// 512-bit load per contraction granule covers 16 columns x 4 k-entries,
// fused into the i32 accumulator in a single instruction — no i16
// intermediate at all, so exactness needs no saturation argument here.
//
// Rows are taken four at a time: each weight load feeds four independent
// accumulators, which also hides vpdpbusd's latency (a single row's chain
// would wait on it every granule). Integer sums are exact in any order, so
// the row grouping cannot change a bit.
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace stepping::i8detail {

namespace {

constexpr int kNr = 16;
constexpr int kMr = 4;

inline __m512i broadcast4(const std::uint8_t* p) {
  std::int32_t a4 = 0;
  std::memcpy(&a4, p, sizeof(a4));
  return _mm512_set1_epi32(a4);
}

}  // namespace

void run_vnni(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
              int n, std::int32_t* c) {
  const int panels = (n + kNr - 1) / kNr;
  const int kg_end = k4 / 4;
  for (int q = 0; q < panels; ++q) {
    const std::int8_t* wp = packed + static_cast<std::size_t>(q) * k4 * kNr;
    const int j0 = q * kNr;
    const int w = std::min(kNr, n - j0);
    const __mmask16 mask = w >= kNr ? static_cast<__mmask16>(0xffff)
                                    : static_cast<__mmask16>((1u << w) - 1u);
    int i = 0;
    for (; i + kMr <= m; i += kMr) {
      const std::uint8_t* ar = a + static_cast<std::size_t>(i) * k4;
      __m512i acc[kMr];
      for (int r = 0; r < kMr; ++r) acc[r] = _mm512_setzero_si512();
      for (int kg = 0; kg < kg_end; ++kg) {
        const __m512i wv =
            _mm512_loadu_si512(wp + static_cast<std::size_t>(kg) * 64);
        for (int r = 0; r < kMr; ++r) {
          acc[r] = _mm512_dpbusd_epi32(
              acc[r], broadcast4(ar + static_cast<std::size_t>(r) * k4 + kg * 4),
              wv);
        }
      }
      for (int r = 0; r < kMr; ++r) {
        _mm512_mask_storeu_epi32(
            c + static_cast<std::size_t>(i + r) * n + j0, mask, acc[r]);
      }
    }
    for (; i < m; ++i) {
      const std::uint8_t* ar = a + static_cast<std::size_t>(i) * k4;
      __m512i acc = _mm512_setzero_si512();
      for (int kg = 0; kg < kg_end; ++kg) {
        acc = _mm512_dpbusd_epi32(
            acc, broadcast4(ar + kg * 4),
            _mm512_loadu_si512(wp + static_cast<std::size_t>(kg) * 64));
      }
      _mm512_mask_storeu_epi32(c + static_cast<std::size_t>(i) * n + j0, mask,
                               acc);
    }
  }
}

}  // namespace stepping::i8detail
