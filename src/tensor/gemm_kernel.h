// Cache-blocked, panel-packed GEMM micro-kernel layer (ISSUE 4).
//
// Raw-pointer kernels under the Tensor API in ops.h. Each public kernel
// dispatches between
//  * the blocked path: BLIS-style jc/pc/ic tiling — NC-wide column blocks
//    of B packed into contiguous NR-wide panels (vectorization-friendly,
//    one cache-line row per contraction step), KC-deep contraction chunks,
//    MC-row groups that keep one B micro-panel L1-resident across
//    consecutive MR x NR register tiles — and
//  * the reference path (gemmref::*): the PR-1 row-parallel naive loops,
//    used for shapes too small to amortize packing and kept as the bitwise
//    ground truth for parity tests.
//
// Determinism contract (the repo-wide invariant from PR 1-3, generalized
// per ISA tier in ISSUE 6): for every kernel, every block-size
// configuration, every STEPPING_THREADS value and every pack-cache state,
// the blocked path's output is BITWISE STABLE within the active ISA tier
// (tensor/gemm_isa.h). On the scalar and sse tiers that output is
// additionally BITWISE IDENTICAL to the reference kernels; the FMA tiers
// (avx2, avx512) fuse each multiply-add into a single rounding, so their
// bits differ from the reference but are equally stable within the tier.
// This holds by construction, because per output element C(i,j) all paths
// apply the same floating-point operations in the same per-element order
// (each element owns one accumulator lane; vector width never reorders a
// single element's term sequence):
//  * axpy family (gemm, gemm_tn, gemm_rows, gemm_tn_rows): the reference
//    accumulates terms a(i,p) * b(p,j) directly into C in ascending-p
//    order, skipping terms whose A operand is exactly zero (masked
//    weights). The blocked path loads the C tile into registers, adds the
//    chunk's terms in the same ascending-p order with the same zero skip,
//    and stores — a store/load round trip between KC chunks preserves bits,
//    so chunked updates replay the reference sequence exactly.
//  * dot family (gemm_nt, gemm_nt_cols, gemm_nt_rows_acc): the reference
//    forms acc = 0, adds terms in ascending-p order (no zero skip), then
//    applies ONE C(i,j) += acc. The blocked path therefore never splits the
//    contraction: accumulators start at zero, run the full k in registers
//    (KC applies to the axpy family only), and C is touched once.
// Row/column/contraction masks short-circuit identically to the reference:
// skipped rows and columns are never loaded or stored.
//
// Block sizes come from STEPPING_GEMM_BLOCK ("MCxKCxNC", e.g. "64x256x256";
// "ref" forces the reference path) or set_gemm_blocking(); defaults target
// a ~256 KiB L2 share. Dispatch, packing and arena usage are instrumented
// with stepping_gemm_* counters and kernel.gemm.* trace spans.
//
// Persistent packed-weight cache (ISSUE 5): dot-family kernels that take a
// `pack_id` (gemm_nt_cols_bias) can skip the pack stage entirely. The cache
// keys fully packed B buffers on (pack_id, k, n, NC, isa tier) — the tier
// is part of the key because panel width NR varies per tier (ISSUE 6), so
// panels packed for one tier are meaningless to another. `pack_id` values come
// from new_pack_id() and owners (MaskedLayer) draw a fresh id whenever the
// weight bytes change — bumping the per-Param `version` counter in
// SGD::step/deserialization feeds that staleness check. The cached bytes are
// exactly what pack_b would produce, so the bitwise-vs-reference contract
// holds by construction at every cache state. Capacity is bounded by
// STEPPING_PACK_CACHE_MB (default 64, 0 disables) with LRU eviction;
// instrumented with stepping_packcache_{hits,misses,bytes}_total (+
// evictions, current-bytes gauge) and `gemm.packcache` spans.
//
// Fused epilogues: *_bias kernels apply per-element bias-add (and optional
// ReLU) inside the micro-kernel store, in the exact per-element op order of
// the separate-kernel sequence gemm -> add bias -> relu. Per output element
// the chains are independent, and a float store/load round trip is
// bit-exact, so fusing is bitwise identical to the unfused sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace stepping {

/// Tile configuration for the blocked path. All sizes are in elements and
/// are clamped to sane minima at use; they affect speed only, never bits.
struct GemmBlocking {
  int mc = 64;   ///< rows per group sharing one L1-resident B micro-panel
  int kc = 256;  ///< contraction chunk (axpy family; dot family runs full k)
  int nc = 1024;  ///< columns packed per pass (bounds the packed-panel bytes;
                  ///< wide so per-row term compaction is well amortized)
  bool force_ref = false;     ///< route everything through gemmref::*
  std::int64_t min_macs = 64 * 1024;  ///< below this m*k*n, use the reference
                                      ///< path (packing would dominate)
  int min_k = 32;  ///< below this contraction depth, use the reference path
                   ///< (per-panel fixed costs outweigh the short dot chains)
};

/// Register-tile row count of the micro-kernel. Compile-time and identical
/// across ISA tiers (MR never affects bits or layout). The column count NR
/// is per-tier — query gemm_panel_width() in tensor/gemm_isa.h.
inline constexpr int kGemmMR = 4;

/// Current configuration. First use parses STEPPING_GEMM_BLOCK.
GemmBlocking gemm_blocking();

/// Override the configuration (tests/benches). Not thread-safe against
/// kernels in flight — call between phases, like set_global_threads.
/// Flushes the pack cache: block sizes change the packed-panel layout.
void set_gemm_blocking(const GemmBlocking& cfg);

/// The STEPPING_GEMM_BLOCK-derived default (what gemm_blocking() returns
/// until overridden).
GemmBlocking env_gemm_blocking();

/// True if (m, k, n) routes to the blocked path under cfg.
bool gemm_uses_blocked(std::int64_t m, std::int64_t k, std::int64_t n,
                       const GemmBlocking& cfg);

// ---------------------------------------------------------------------------
// Persistent packed-weight cache.
// ---------------------------------------------------------------------------

/// Globally unique, nonzero cache identity for one packed-operand snapshot.
/// Owners draw a fresh id whenever the operand's bytes change; ids are never
/// reused, so a stale entry can only ever miss (no pointer-aliasing hazard).
std::uint64_t new_pack_id();

/// Drop every cached packed buffer (blocking-config change, tests).
void flush_pack_cache();

/// Capacity override in MiB; <= 0 disables caching and flushes. Overrides
/// STEPPING_PACK_CACHE_MB (read once on first use, default 64).
void set_pack_cache_limit_mb(long mb);
long pack_cache_limit_mb();

/// Current cache occupancy (for tests / introspection).
std::size_t pack_cache_bytes();
std::size_t pack_cache_entries();

/// Alternate pack kinds (ISSUE 7) share the fp32 LRU cache — one capacity
/// budget, one eviction policy, the same id-based invalidation (a fresh
/// pack_id can only miss). Kind 0 is the fp32 panel layout owned by the
/// blocked path; kind 1 is the quant subsystem's int8 panel blob (packed
/// i8 panels + per-channel compensation sums + scales, stored as raw bytes
/// in the float vector). Other subsystems go through these two calls; the
/// `tier` field pins the layout-defining provider id.
std::shared_ptr<const std::vector<float>> pack_cache_find_kind(
    std::uint64_t pack_id, int k, int n, int nc, int tier, int kind);
void pack_cache_insert_kind(std::uint64_t pack_id, int k, int n, int nc,
                            int tier, int kind,
                            std::shared_ptr<const std::vector<float>> data);

// ---------------------------------------------------------------------------
// Dispatching raw-pointer kernels. Same math and dimension conventions as
// the Tensor wrappers in ops.h (row-major; m/k/n as documented there).
// Callers owning arena or Tensor storage alike go through these.
// ---------------------------------------------------------------------------

/// C(m x n) = A(m x k) * B(k x n); zeroes C first unless `accumulate`.
void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate);

/// C(m x n) = At^T * B with At (k x m), B (k x n).
void gemm_tn(const float* at, const float* b, float* c, int m, int k, int n,
             bool accumulate);

/// C(m x n) = A(m x k) * Bt^T with Bt (n x k).
void gemm_nt(const float* a, const float* bt, float* c, int m, int k, int n,
             bool accumulate);

/// gemm over rows with row_active[i] != 0 only; other C rows untouched
/// (callers pass zeroed C).
void gemm_rows(const float* a, const float* b, float* c, int m, int k, int n,
               const unsigned char* row_active);

/// gemm_nt over columns with col_active[j] != 0 only; others untouched.
void gemm_nt_cols(const float* a, const float* bt, float* c, int m, int k,
                  int n, const unsigned char* col_active);

/// gemm_nt over rows with row_active[i] != 0, always accumulating into C.
void gemm_nt_rows_acc(const float* a, const float* bt, float* c, int m, int k,
                      int n, const unsigned char* row_active);

/// gemm_tn skipping contraction rows p with k_active[p] == 0; zeroes C.
void gemm_tn_rows(const float* at, const float* b, float* c, int m, int k,
                  int n, const unsigned char* k_active);

// ---------------------------------------------------------------------------
// Fused-epilogue kernels (bias-add + optional ReLU in the store).
// ---------------------------------------------------------------------------

/// gemm_nt_cols, then per active column j: C(i,j) += bias[j], and if `relu`
/// C(i,j) = max(C(i,j), 0) — fused into the single C store, bitwise
/// identical to the unfused sequence (inactive columns stay untouched; a
/// zero-filled C then matches the reference's relu(0) == +0 bit for bit).
/// `pack_id` != 0 additionally routes Bt's packed panels through the
/// persistent cache (pass 0 for transient operands, e.g. during training).
void gemm_nt_cols_bias(const float* a, const float* bt, float* c, int m, int k,
                       int n, const unsigned char* col_active,
                       const float* bias, bool relu, std::uint64_t pack_id);

/// gemm_rows, then per active row i: C(i,j) += bias[i] for every j, plus the
/// optional ReLU — the Conv2d forward epilogue (bias per output unit).
/// Conv2d calls it on a compacted contraction: A holds the weights of only
/// the input channels the executing subnet can read (gathered per call, so
/// rows it does not flag may be garbage — flagged-off rows are never read)
/// and B the im2col rows of only those channels. The terms this drops have
/// structurally zero A operands, which every route skips (av == 0), so C's
/// bits equal a full-width call's. Both operands are transient, so there is
/// no pack_id here.
void gemm_rows_bias(const float* a, const float* b, float* c, int m, int k,
                    int n, const unsigned char* row_active, const float* bias,
                    bool relu);

// ---------------------------------------------------------------------------
// Reference kernels: the pre-blocking row-parallel loops, verbatim. The
// parity grid (tests/gemm_kernel_test.cc) and the bench_ops sweep assert
// the blocked path against these byte for byte on the scalar/sse tiers;
// the FMA tiers are instead asserted bitwise-stable within the tier.
// ---------------------------------------------------------------------------
namespace gemmref {

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate);
void gemm_tn(const float* at, const float* b, float* c, int m, int k, int n,
             bool accumulate);
void gemm_nt(const float* a, const float* bt, float* c, int m, int k, int n,
             bool accumulate);
void gemm_rows(const float* a, const float* b, float* c, int m, int k, int n,
               const unsigned char* row_active);
void gemm_nt_cols(const float* a, const float* bt, float* c, int m, int k,
                  int n, const unsigned char* col_active);
void gemm_nt_rows_acc(const float* a, const float* bt, float* c, int m, int k,
                      int n, const unsigned char* row_active);
void gemm_tn_rows(const float* at, const float* b, float* c, int m, int k,
                  int n, const unsigned char* k_active);
void gemm_nt_cols_bias(const float* a, const float* bt, float* c, int m, int k,
                       int n, const unsigned char* col_active,
                       const float* bias, bool relu);
void gemm_rows_bias(const float* a, const float* b, float* c, int m, int k,
                    int n, const unsigned char* row_active, const float* bias,
                    bool relu);

}  // namespace gemmref

}  // namespace stepping
