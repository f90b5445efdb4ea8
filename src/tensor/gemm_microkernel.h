// Internal contract between the blocked GEMM driver (gemm_kernel.cc) and
// the per-ISA micro-kernel translation units (ISSUE 6).
//
// Each gemm_microkernel_<tier>.cc is compiled with that tier's -m flags and
// exports one KernelTable of function pointers; nothing else in the binary
// is built with those flags, so no instruction wider than the dispatcher's
// choice ever executes. The driver loads the active table once per kernel
// call and never mixes tiers within a call.
//
// The table functions are the two inner loops of the blocked path:
//  * axpy — one C row against one NR-column panel of B (pair=false) or two
//    (pair=true, 2*NR columns). The caller compacted the row's contraction
//    terms (ascending p, exact-zero A terms dropped) into (vals, offs):
//    term t reads B at bp0 + offs[t], and the second panel sits pstride
//    floats after the first. The packed GEMM passes offs[t] = p * NR and
//    pstride = bk * NR; the implicit-GEMM conv (conv2d_implicit in
//    tensor/ops.h) passes tap offsets into a zero-padded input copy and
//    pstride = NR, so both run this one kernel per tier. Lanes past w read
//    up to 2*NR - 1 floats beyond the last needed column (the caller keeps
//    them readable) and are never stored. `epi` applies the fused
//    bias(+ReLU) store on the chunk completing the contraction.
//  * axpy_rows — axpy over `rows` C rows (rows apart by cstride) that share
//    one (offs, nnz) term pattern, each with its own values (vstride
//    apart) and bias. Per element it is axpy's sequence, so each row's
//    bits equal a single-row call's; each term's B vectors are loaded once
//    for every row. `rows` is sized to the tier's register file (4 rows x
//    2 panels of accumulators on avx512, 2 on avx2). conv2d_implicit sends
//    runs of joining units whose compacted terms match through it. Tiers
//    where it timed no faster than one row per call (scalar, sse) set
//    rows = 1 and leave it null.
//  * dot — an MR x NR register tile over the FULL contraction (this family
//    never chunks k): accumulators start at zero and C is updated exactly
//    once per element. rmask/cmask are null when that mask is absent;
//    bias != nullptr arms the fused epilogue.
// Semantics (including the per-element FP operation order *within* a lane
// discipline) are defined by gemm_microkernel_impl.h, which every tier TU
// instantiates with its own vector traits.
//
// The table also carries the tier's SMALL-SHAPE FALLBACK kernels (the
// fb_* slots): shapes below the blocked path's dispatch gates run the
// reference loops of gemm_fallback_impl.h, instantiated with the tier's own
// multiply-add. Every dispatch route therefore yields the same bits within
// a tier — values crossing the blocked/fallback routing boundary
// (incremental executor deltas vs full forwards) stay exactly reusable.
// The scalar table's fb_* slots are the two-rounding reference loops the
// scalar/sse parity tests compare against.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm_isa.h"

namespace stepping::microkernel {

using AxpyFn = void (*)(const float* vals, const int* offs, int nnz,
                        const float* bp0, std::ptrdiff_t pstride, float* crow,
                        int w, bool pair, bool epi, float bias, bool relu);

using AxpyRowsFn = void (*)(const float* vals, std::ptrdiff_t vstride,
                            const int* offs, int nnz, const float* bp0,
                            std::ptrdiff_t pstride, float* crow,
                            std::ptrdiff_t cstride, int w, bool pair,
                            bool epi, const float* bias, bool relu);

using DotFn = void (*)(const float* a, float* c, int k, int n,
                       std::int64_t i0, int h, int j0, int w, int bk,
                       const float* bp, const unsigned char* rmask,
                       const unsigned char* cmask, const float* bias,
                       bool relu);

using FbGemmFn = void (*)(const float* a, const float* b, float* c, int m,
                          int k, int n, bool accumulate);
using FbMaskFn = void (*)(const float* a, const float* b, float* c, int m,
                          int k, int n, const unsigned char* mask);
using FbBiasFn = void (*)(const float* a, const float* b, float* c, int m,
                          int k, int n, const unsigned char* mask,
                          const float* bias, bool relu);

struct KernelTable {
  IsaTier tier;
  const char* name;  ///< == isa_tier_name(tier)
  int nr;            ///< packed-panel width in floats
  AxpyFn axpy;
  int rows;          ///< C rows per axpy_rows call; 1 = no axpy_rows
  AxpyRowsFn axpy_rows;
  DotFn dot;
  // Small-shape fallback family (reference loop structure, tier madd).
  FbGemmFn fb_gemm;
  FbGemmFn fb_gemm_tn;
  FbGemmFn fb_gemm_nt;
  FbMaskFn fb_gemm_nt_rows_acc;
  FbMaskFn fb_gemm_tn_rows;
  FbBiasFn fb_gemm_nt_cols_bias;
  FbBiasFn fb_gemm_rows_bias;
};

// Defined by the tier TUs the build included; gemm_isa.cc only references
// the ones gated in by the STEPPING_ISA_HAVE_* compile definitions.
const KernelTable* table_scalar();
const KernelTable* table_sse();
const KernelTable* table_avx2();
const KernelTable* table_avx512();

/// Table of the active tier (isa_tier()).
const KernelTable& active_table();

}  // namespace stepping::microkernel
