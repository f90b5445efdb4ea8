// AVX-512 tier: 16-lane __m512 with _mm512_fmadd_ps. This TU (alone) is
// compiled with -mavx512f. Like the avx2 tier the fused multiply-add is an
// explicit intrinsic, so single rounding per term is the tier's contract;
// bits differ from scalar/sse but are stable within the tier.
//
// NR doubles again to 32: two 16-lane accumulators per panel, preserving
// the two-independent-accumulator ILP shape of the narrower tiers.
#include <immintrin.h>

#include "tensor/gemm_fallback_impl.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_microkernel_impl.h"

namespace stepping::microkernel {

namespace {

/// Fused multiply-add for the fallback loops (see the avx2 tier): one
/// rounding per term, matching this tier's micro-kernels.
struct FusedMadd {
  static float madd(float a, float b, float c) {
    return __builtin_fmaf(a, b, c);
  }
};

struct V16 {
  static constexpr int kLanes = 16;
  using Vec = __m512;
  static Vec zero() { return _mm512_setzero_ps(); }
  static Vec load(const float* p) { return _mm512_loadu_ps(p); }
  static Vec splat(float x) { return _mm512_set1_ps(x); }
  static Vec fmadd(Vec acc, Vec a, Vec b) { return _mm512_fmadd_ps(a, b, acc); }
  static void store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
};

// axpy_rows rows per call: four rows x four accumulators (two panels of
// two vectors) plus a term's four B vectors and the splats fit the 32 zmm
// registers.
constexpr int kRows = 4;
constexpr int kNr = 32;

const KernelTable kTable = {IsaTier::kAvx512,
                            "avx512",
                            kNr,
                            &detail::axpy_entry<V16, kNr>,
                            kRows,
                            &detail::axpy_rows_entry<V16, kNr, kRows>,
                            &detail::dot_entry<V16, kNr>,
                            &detail::fb_gemm<FusedMadd>,
                            &detail::fb_gemm_tn<FusedMadd>,
                            &detail::fb_gemm_nt<FusedMadd>,
                            &detail::fb_gemm_nt_rows_acc<FusedMadd>,
                            &detail::fb_gemm_tn_rows<FusedMadd>,
                            &detail::fb_gemm_nt_cols_bias<FusedMadd>,
                            &detail::fb_gemm_rows_bias<FusedMadd>};

}  // namespace

const KernelTable* table_avx512() { return &kTable; }

}  // namespace stepping::microkernel
