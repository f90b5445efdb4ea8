// Runtime ISA dispatch for the GEMM micro-kernel family (ISSUE 6).
//
// The register-blocked micro-kernels (gemm_kernel.h) are compiled four
// times, each translation unit with its own -m flags, into a per-tier
// kernel table:
//
//   tier     lanes  panel width NR  multiply-add
//   scalar       1               8  mul, then add (-ffp-contract=off)
//   sse          4               8  mul, then add (GCC vector extensions)
//   avx2         8              16  _mm256_fmadd_ps (fused)
//   avx512      16              32  _mm512_fmadd_ps (fused)
//
// Selection happens ONCE at startup: cpuid (util/cpuid.h) picks the widest
// tier both compiled into the binary and executable on the host, and
// STEPPING_ISA=scalar|sse|avx2|avx512 pins a lower tier for reproducibility.
// Requests above the host's capability clamp down with a STEPPING_LOG
// warning. The active tier is exported as the stepping_isa_tier gauge and as
// the "isa" arg on gemm.blocked trace spans.
//
// Determinism contract (generalizes the blocking contract of
// tensor/gemm_kernel.h): outputs are BITWISE-STABLE PER TIER — for a fixed
// tier, every blocking configuration and thread count produces identical
// bits, because the per-element FP operation sequence is fixed within a
// tier. Across tiers bits may differ: the FMA tiers (avx2, avx512) fuse each
// multiply-add into one rounding where scalar/sse round twice. The scalar
// and sse tiers replay the reference loops' exact operation order and so
// give each other's bits; they are the tiers the blocked-vs-reference
// parity tests pin.
#pragma once

#include <string>

namespace stepping {

/// Ordered by capability: a host that can run tier T can run every tier
/// below it (scalar needs nothing, sse needs SSE2 — the x86-64 baseline).
enum class IsaTier : int { kScalar = 0, kSse = 1, kAvx2 = 2, kAvx512 = 3 };

/// "scalar", "sse", "avx2", "avx512".
const char* isa_tier_name(IsaTier t);

/// Parse a STEPPING_ISA value. Returns false (out untouched) for unknown
/// names; matching is exact and lowercase.
bool parse_isa_tier(const std::string& s, IsaTier* out);

/// True if the tier's micro-kernel TU was compiled into this binary (the
/// build gates AVX TUs on compiler flag support and x86 targets).
bool isa_tier_compiled(IsaTier t);

/// Widest tier that is both compiled in and executable on this host
/// (cpuid-probed once).
IsaTier detected_isa_tier();

/// What the environment requests right now: STEPPING_ISA parsed and clamped
/// to detected_isa_tier(), or detected_isa_tier() when unset/unknown.
/// Recomputed on every call (no logging); tests use it to restore state.
IsaTier env_isa_tier();

/// The active tier. First call performs the startup selection (env request
/// clamped to the host, logged via STEPPING_LOG) and sets the
/// stepping_isa_tier gauge.
IsaTier isa_tier();

/// Override the active tier (tests/benches). Clamps to detected_isa_tier()
/// with a warning and updates the gauge. Not thread-safe against kernels in
/// flight — call between phases, like set_gemm_blocking.
void set_isa_tier(IsaTier t);

/// Packed-panel width (floats) of the active tier's micro-kernels.
int gemm_panel_width();

}  // namespace stepping
