// SSSE3 int8 GEMM kernel (pmaddubsw). Compiled with -mssse3; only reached
// when cpuid reports SSSE3 (tensor/i8gemm.cc). nr = 4: one 128-bit load per
// contraction granule covers 4 columns x 4 k-entries.
//
// pmaddubsw's i16 saturation is unreachable under the quantization scheme
// (activations <= 127, see i8gemm.h), so the accumulators below are exact
// and bit-identical to the scalar reference.
#include <emmintrin.h>
#include <tmmintrin.h>

#include <cstdint>
#include <cstring>

namespace stepping::i8detail {

void run_ssse3(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
               int n, std::int32_t* c) {
  constexpr int kNr = 4;
  const int panels = (n + kNr - 1) / kNr;
  const int kg_end = k4 / 4;
  const __m128i ones = _mm_set1_epi16(1);
  for (int i = 0; i < m; ++i) {
    const std::uint8_t* ar = a + static_cast<std::size_t>(i) * k4;
    for (int q = 0; q < panels; ++q) {
      const std::int8_t* wp = packed + static_cast<std::size_t>(q) * k4 * kNr;
      __m128i acc = _mm_setzero_si128();
      for (int kg = 0; kg < kg_end; ++kg) {
        std::int32_t a4;
        std::memcpy(&a4, ar + kg * 4, sizeof(a4));
        const __m128i av = _mm_set1_epi32(a4);
        const __m128i wv = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(wp + static_cast<std::size_t>(kg) * 16));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_maddubs_epi16(av, wv), ones));
      }
      const int j0 = q * kNr;
      std::int32_t* cr = c + static_cast<std::size_t>(i) * n + j0;
      if (n - j0 >= kNr) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(cr), acc);
      } else {
        alignas(16) std::int32_t tmp[kNr];
        _mm_store_si128(reinterpret_cast<__m128i*>(tmp), acc);
        const int w = n - j0;
        for (int jr = 0; jr < w; ++jr) cr[jr] = tmp[jr];
      }
    }
  }
}

}  // namespace stepping::i8detail
