// SSE tier: explicit 4-lane vectors (GCC/Clang vector extension, SSE2
// baseline). Lane-wise += and * are the exact scalar operations on each
// element in the same per-element order, so vectorizing this way cannot
// perturb bits — this tier reproduces both the scalar tier and the
// pre-dispatch 4-lane kernels bit for bit. The explicit form exists
// because GCC 12's auto-vectorizer turns the scalar version of these loops
// into an interleaved gather across contraction steps (~7x slower) while
// still being bit-exact.
//
// Compiled with -ffp-contract=off: on x86-64 that is a no-op (no FMA at
// the SSE2 baseline), but it pins the two-rounding multiply-add on targets
// whose baseline does carry fused ops.
#include "tensor/gemm_fallback_impl.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_microkernel_impl.h"

namespace stepping::microkernel {

namespace {

/// Two-rounding multiply-add for the fallback loops, in the operand order
/// of V4::fmadd (acc + a * b) — the scalar tier's SplitMadd.
struct SplitMadd {
  static float madd(float a, float b, float c) { return c + a * b; }
};

typedef float v4f __attribute__((vector_size(16)));

struct V4 {
  static constexpr int kLanes = 4;
  using Vec = v4f;
  static Vec zero() { return v4f{}; }
  static Vec load(const float* p) {
    v4f v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  }
  static Vec splat(float x) { return v4f{x, x, x, x}; }
  static Vec fmadd(Vec acc, Vec a, Vec b) { return acc + a * b; }
  static void store(float* p, Vec v) { __builtin_memcpy(p, &v, sizeof v); }
};

constexpr int kNr = 8;

// No multi-row conv kernel (rows 1, axpy_rows null): with two rows per call
// a LeNet climb took 0.99-1.04x the time of one row per call.
const KernelTable kTable = {IsaTier::kSse,
                            "sse",
                            kNr,
                            &detail::axpy_entry<V4, kNr>,
                            1,
                            nullptr,
                            &detail::dot_entry<V4, kNr>,
                            &detail::fb_gemm<SplitMadd>,
                            &detail::fb_gemm_tn<SplitMadd>,
                            &detail::fb_gemm_nt<SplitMadd>,
                            &detail::fb_gemm_nt_rows_acc<SplitMadd>,
                            &detail::fb_gemm_tn_rows<SplitMadd>,
                            &detail::fb_gemm_nt_cols_bias<SplitMadd>,
                            &detail::fb_gemm_rows_bias<SplitMadd>};

}  // namespace

const KernelTable* table_sse() { return &kTable; }

}  // namespace stepping::microkernel
