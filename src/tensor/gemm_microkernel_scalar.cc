// Scalar tier: one float per "vector", multiply then add as two separate
// roundings (the TU is compiled with -ffp-contract=off so no FMA can be
// fused in behind our back). This is the portable fallback, and its fb_*
// slots are the reference loops the blocked path is tested against; the
// sse tier performs the identical per-element operation sequence four
// lanes at a time.
//
// NR stays 8 so the packed-panel layout matches the sse tier exactly; the
// two tiers differ only in how many lanes one instruction covers, which is
// invisible to both bits and panel bytes.
#include "tensor/gemm_fallback_impl.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_microkernel_impl.h"

namespace stepping::microkernel {

namespace {

/// Two-rounding multiply-add for the fallback loops, in the operand order
/// of V1::fmadd (acc + a * b).
struct SplitMadd {
  static float madd(float a, float b, float c) { return c + a * b; }
};

struct V1 {
  static constexpr int kLanes = 1;
  using Vec = float;
  static Vec zero() { return 0.0f; }
  static Vec load(const float* p) { return *p; }
  static Vec splat(float x) { return x; }
  static Vec fmadd(Vec acc, Vec a, Vec b) { return acc + a * b; }
  static void store(float* p, Vec v) { *p = v; }
};

constexpr int kNr = 8;

// No multi-row conv kernel (rows 1, axpy_rows null): two rows' pairs of
// panels are 32 scalar accumulators, and a LeNet climb ran 2.0-2.4x
// slower with it than with one row per call.
const KernelTable kTable = {IsaTier::kScalar,
                            "scalar",
                            kNr,
                            &detail::axpy_entry<V1, kNr>,
                            1,
                            nullptr,
                            &detail::dot_entry<V1, kNr>,
                            &detail::fb_gemm<SplitMadd>,
                            &detail::fb_gemm_tn<SplitMadd>,
                            &detail::fb_gemm_nt<SplitMadd>,
                            &detail::fb_gemm_nt_rows_acc<SplitMadd>,
                            &detail::fb_gemm_tn_rows<SplitMadd>,
                            &detail::fb_gemm_nt_cols_bias<SplitMadd>,
                            &detail::fb_gemm_rows_bias<SplitMadd>};

}  // namespace

const KernelTable* table_scalar() { return &kTable; }

}  // namespace stepping::microkernel
