// AVX2 int8 GEMM kernel (vpmaddubsw). Compiled with -mavx2. nr = 8: one
// 256-bit load per contraction granule covers 8 columns x 4 k-entries.
// Saturation-free under the [0,127] activation bound (i8gemm.h), so the
// accumulators are exact and bit-identical to the scalar reference.
#include <immintrin.h>

#include <cstdint>
#include <cstring>

namespace stepping::i8detail {

void run_avx2(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
              int n, std::int32_t* c) {
  constexpr int kNr = 8;
  const int panels = (n + kNr - 1) / kNr;
  const int kg_end = k4 / 4;
  const __m256i ones = _mm256_set1_epi16(1);
  for (int i = 0; i < m; ++i) {
    const std::uint8_t* ar = a + static_cast<std::size_t>(i) * k4;
    for (int q = 0; q < panels; ++q) {
      const std::int8_t* wp = packed + static_cast<std::size_t>(q) * k4 * kNr;
      __m256i acc = _mm256_setzero_si256();
      for (int kg = 0; kg < kg_end; ++kg) {
        std::int32_t a4;
        std::memcpy(&a4, ar + kg * 4, sizeof(a4));
        const __m256i av = _mm256_set1_epi32(a4);
        const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            wp + static_cast<std::size_t>(kg) * 32));
        acc = _mm256_add_epi32(acc,
                               _mm256_madd_epi16(_mm256_maddubs_epi16(av, wv), ones));
      }
      const int j0 = q * kNr;
      std::int32_t* cr = c + static_cast<std::size_t>(i) * n + j0;
      if (n - j0 >= kNr) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), acc);
      } else {
        alignas(32) std::int32_t tmp[kNr];
        _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc);
        const int w = n - j0;
        for (int jr = 0; jr < w; ++jr) cr[jr] = tmp[jr];
      }
    }
  }
}

}  // namespace stepping::i8detail
