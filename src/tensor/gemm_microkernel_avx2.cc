// AVX2+FMA tier: 8-lane __m256 with _mm256_fmadd_ps. This TU (alone) is
// compiled with -mavx2 -mfma; the explicit intrinsic — rather than letting
// the compiler contract a mul/add pair — makes the single-rounding fused
// multiply-add part of the tier's contract instead of a codegen accident.
// Bits therefore differ from the scalar/sse tiers (one rounding per term
// instead of two) but are stable within this tier for every blocking,
// thread count and pack-cache state.
//
// NR doubles to 16: two 8-lane accumulators per panel keep the same
// independent-accumulator ILP the sse tier gets from two 4-lane ones.
#include <immintrin.h>

#include "tensor/gemm_fallback_impl.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_microkernel_impl.h"

namespace stepping::microkernel {

namespace {

/// Fused multiply-add for the fallback loops: __builtin_fmaf lowers to the
/// scalar/packed vfmadd forms under -mfma, so the fallback's per-term
/// rounding matches the blocked micro-kernels exactly.
struct FusedMadd {
  static float madd(float a, float b, float c) {
    return __builtin_fmaf(a, b, c);
  }
};

struct V8 {
  static constexpr int kLanes = 8;
  using Vec = __m256;
  static Vec zero() { return _mm256_setzero_ps(); }
  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static Vec splat(float x) { return _mm256_set1_ps(x); }
  static Vec fmadd(Vec acc, Vec a, Vec b) { return _mm256_fmadd_ps(a, b, acc); }
  static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
};

// axpy_rows rows per call: two rows x four accumulators (two panels of
// two vectors) plus a term's four B vectors and the splats fit the 16 ymm
// registers.
constexpr int kRows = 2;
constexpr int kNr = 16;

const KernelTable kTable = {IsaTier::kAvx2,
                            "avx2",
                            kNr,
                            &detail::axpy_entry<V8, kNr>,
                            kRows,
                            &detail::axpy_rows_entry<V8, kNr, kRows>,
                            &detail::dot_entry<V8, kNr>,
                            &detail::fb_gemm<FusedMadd>,
                            &detail::fb_gemm_tn<FusedMadd>,
                            &detail::fb_gemm_nt<FusedMadd>,
                            &detail::fb_gemm_nt_rows_acc<FusedMadd>,
                            &detail::fb_gemm_tn_rows<FusedMadd>,
                            &detail::fb_gemm_nt_cols_bias<FusedMadd>,
                            &detail::fb_gemm_rows_bias<FusedMadd>};

}  // namespace

const KernelTable* table_avx2() { return &kTable; }

}  // namespace stepping::microkernel
