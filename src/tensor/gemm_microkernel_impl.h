// Shared implementation of the GEMM micro-kernel family, instantiated once
// per ISA tier (ISSUE 6). Include ONLY from gemm_microkernel_<tier>.cc —
// each tier TU is compiled with its own -m flags, and pulling these
// templates into a TU built with wider flags would let the compiler emit
// instructions the dispatcher never agreed to run.
//
// A tier supplies a vector-traits struct:
//
//   struct V {
//     static constexpr int kLanes;          // floats per vector
//     using Vec;                            // register type
//     static Vec  zero();
//     static Vec  load(const float* p);     // unaligned
//     static Vec  splat(float x);
//     static Vec  fmadd(Vec acc, Vec a, Vec b);  // acc (+)= a * b
//     static void store(float* p, Vec v);   // unaligned
//   };
//
// and an NR (packed-panel width, a multiple of kLanes). Everything that
// determines bits lives here: each C element owns exactly one accumulator
// lane, terms are applied in ascending contraction order, and the only
// per-tier degree of freedom is fmadd — two roundings (mul then add) on
// the scalar/sse tiers, one fused rounding on the FMA tiers. That is why
// outputs are bitwise-stable *within* a tier for any blocking, thread
// count or pack-cache state, while tiers with different fmadd semantics
// may legitimately differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/gemm_kernel.h"

namespace stepping::microkernel::detail {

inline constexpr int kMR = kGemmMR;

/// Axpy-family inner kernel: one C row against one (Pair=false) or two
/// (Pair=true) NR-column panels of B. The caller compacted the row's
/// contraction terms — ascending p, the reference's av == 0.0f terms
/// dropped — into (vals, offs), so the hot loop is branchless: per element
/// the reference's operation sequence is replayed exactly, compaction only
/// removed the unpredictable per-term branch that would dominate a branchy
/// micro-kernel. Term t reads its B row at bp0 + offs[t] (first panel) and
/// bp0 + pstride + offs[t] (second panel), so the same kernel serves both
/// callers: the packed GEMM passes offs[t] = p * NR and pstride = bk * NR,
/// the implicit-GEMM conv passes each tap's offset into a zero-padded input
/// copy and pstride = NR (its columns are contiguous). Lanes at j >= w read
/// panel padding or columns past the row and are not stored back; callers
/// keep 2 * NR readable floats past the last column they need.
///
/// When `epi` is set (fused epilogue, final KC chunk only) the store adds
/// the row's bias — and applies ReLU if `relu` — to each element before
/// writing: the same value the unfused sequence produces, since the
/// reference's intermediate store/load round trips are bit-exact.
template <class V, int NR, bool Pair>
inline void axpy_row_panels(const float* vals, const int* offs, int nnz,
                            const float* bp0, std::ptrdiff_t pstride,
                            float* crow, int w, bool epi, float bias,
                            bool relu) {
  constexpr int kL = V::kLanes;
  constexpr int kW = Pair ? 2 * NR : NR;      // columns covered
  constexpr int kNV = kW / kL;                // accumulator vectors
  constexpr int kPV = NR / kL;                // vectors per panel
  static_assert(NR % kL == 0, "panel width must be a multiple of the lanes");
  const float* bp1 = bp0 + pstride;  // second panel
  // Vector u covers columns [u*kL, u*kL + kL), all inside one panel; its
  // panel base and within-panel column offset never change across terms.
  const float* pan[kNV];
  for (int u = 0; u < kNV; ++u) {
    pan[u] = (u < kPV ? bp0 : bp1) + (u % kPV) * kL;
  }
  float init[kW];
  for (int j = 0; j < kW; ++j) init[j] = (j < w) ? crow[j] : 0.0f;
  typename V::Vec acc[kNV];
  for (int u = 0; u < kNV; ++u) acc[u] = V::load(init + kL * u);
  // Unrolled by two contraction terms: same accumulator sequence (term t
  // fully applied before term t+1), half the loop-control overhead.
  int t = 0;
  for (; t + 1 < nnz; t += 2) {
    const typename V::Vec a0 = V::splat(vals[t]);
    const typename V::Vec a1 = V::splat(vals[t + 1]);
    const int o0 = offs[t];
    const int o1 = offs[t + 1];
    for (int u = 0; u < kNV; ++u) acc[u] = V::fmadd(acc[u], a0, V::load(pan[u] + o0));
    for (int u = 0; u < kNV; ++u) acc[u] = V::fmadd(acc[u], a1, V::load(pan[u] + o1));
  }
  for (; t < nnz; ++t) {
    const typename V::Vec av = V::splat(vals[t]);
    const int off = offs[t];
    for (int u = 0; u < kNV; ++u) acc[u] = V::fmadd(acc[u], av, V::load(pan[u] + off));
  }
  float out[kW];
  for (int u = 0; u < kNV; ++u) V::store(out + kL * u, acc[u]);
  if (epi) {
    for (int j = 0; j < w; ++j) {
      float v = out[j] + bias;
      if (relu) v = v > 0.0f ? v : 0.0f;
      crow[j] = v;
    }
  } else {
    for (int j = 0; j < w; ++j) crow[j] = out[j];
  }
}

/// Multi-row axpy: `Rows` C rows, row r at crow + r * cstride, that share
/// one term pattern — the same nnz and offsets — each with its own values
/// (row r's term t is vals[r * vstride + t]). Per element this is
/// axpy_row_panels' sequence (one accumulator lane, terms in ascending
/// order, then the epilogue with row r's bias[r]), so every row gets the
/// bits a single-row call would give it; each term's B vectors are loaded
/// once for all the rows, and the rows' accumulators are independent
/// chains. Rows x (Pair ? 2 : 1) panels of accumulators must fit the
/// tier's register file with the term's B vectors beside them.
template <class V, int NR, int Rows, bool Pair>
inline void axpy_rows_panels(const float* vals, std::ptrdiff_t vstride,
                             const int* offs, int nnz, const float* bp0,
                             std::ptrdiff_t pstride, float* crow,
                             std::ptrdiff_t cstride, int w, bool epi,
                             const float* bias, bool relu) {
  constexpr int kL = V::kLanes;
  constexpr int kW = Pair ? 2 * NR : NR;
  constexpr int kNV = kW / kL;
  constexpr int kPV = NR / kL;
  static_assert(NR % kL == 0, "panel width must be a multiple of the lanes");
  const float* bp1 = bp0 + pstride;
  const float* pan[kNV];
  for (int u = 0; u < kNV; ++u) {
    pan[u] = (u < kPV ? bp0 : bp1) + (u % kPV) * kL;
  }
  typename V::Vec acc[Rows][kNV];
  for (int r = 0; r < Rows; ++r) {
    float init[kW];
    const float* c = crow + r * cstride;
    for (int j = 0; j < kW; ++j) init[j] = (j < w) ? c[j] : 0.0f;
    for (int u = 0; u < kNV; ++u) acc[r][u] = V::load(init + kL * u);
  }
  for (int t = 0; t < nnz; ++t) {
    const int off = offs[t];
    typename V::Vec b[kNV];
    for (int u = 0; u < kNV; ++u) b[u] = V::load(pan[u] + off);
    for (int r = 0; r < Rows; ++r) {
      const typename V::Vec av = V::splat(vals[r * vstride + t]);
      for (int u = 0; u < kNV; ++u) acc[r][u] = V::fmadd(acc[r][u], av, b[u]);
    }
  }
  for (int r = 0; r < Rows; ++r) {
    float out[kW];
    for (int u = 0; u < kNV; ++u) V::store(out + kL * u, acc[r][u]);
    float* c = crow + r * cstride;
    if (epi) {
      for (int j = 0; j < w; ++j) {
        float v = out[j] + bias[r];
        if (relu) v = v > 0.0f ? v : 0.0f;
        c[j] = v;
      }
    } else {
      for (int j = 0; j < w; ++j) c[j] = out[j];
    }
  }
}

/// Dot-family MR x NR register tile over the FULL contraction (this family
/// never chunks k): accumulators start at zero, add every term in
/// ascending-p order, and C is updated exactly once per element — the
/// reference's single `crow[j] += acc` — so blocking matches bitwise. The
/// dot family takes A untransposed and has no contraction mask (gemm_nt,
/// gemm_nt_rows_acc, gemm_nt_cols_bias), so `p` indexes A rows directly. Row
/// activity is fixed across the p loop, so its branch predicts perfectly —
/// unlike the axpy family's data-dependent zero skip, no compaction needed.
template <class V, int NR, bool RowMask, bool ColMask, bool Full>
inline void dot_tile(const float* a, float* c, int k, int n, std::int64_t i0,
                     int h, int j0, int w, int bk, const float* bp,
                     const unsigned char* rmask, const unsigned char* cmask,
                     const float* bias, bool relu) {
  constexpr int kL = V::kLanes;
  constexpr int kNV = NR / kL;
  const int hh = Full ? kMR : h;
  bool act[kMR];
  for (int r = 0; r < hh; ++r) act[r] = !RowMask || rmask[i0 + r] != 0;
  typename V::Vec acc[kMR][kNV];
  for (int r = 0; r < hh; ++r) {
    for (int u = 0; u < kNV; ++u) acc[r][u] = V::zero();
  }
  for (int p = 0; p < bk; ++p) {
    const float* brow = bp + static_cast<std::size_t>(p) * NR;
    typename V::Vec bv[kNV];
    for (int u = 0; u < kNV; ++u) bv[u] = V::load(brow + kL * u);
    for (int r = 0; r < hh; ++r) {
      if (RowMask && !act[r]) continue;
      const typename V::Vec av =
          V::splat(a[(static_cast<std::size_t>(i0) + r) * k + p]);
      for (int u = 0; u < kNV; ++u) acc[r][u] = V::fmadd(acc[r][u], av, bv[u]);
    }
  }
  for (int r = 0; r < hh; ++r) {
    if (RowMask && !act[r]) continue;
    float out[NR];
    for (int u = 0; u < kNV; ++u) V::store(out + kL * u, acc[r][u]);
    float* crow = c + (static_cast<std::size_t>(i0) + r) * n + j0;
    const int ww = Full ? NR : w;
    for (int j = 0; j < ww; ++j) {
      if (ColMask && cmask[j0 + j] == 0) continue;
      // Fused epilogue: the dot family updates C exactly once, so bias/relu
      // ride on that single store — same per-element op chain as the
      // unfused gemm -> bias -> relu passes (round trips are bit-exact).
      float v = crow[j] + out[j];
      if (bias != nullptr) {
        v += bias[j0 + j];
        if (relu) v = v > 0.0f ? v : 0.0f;
      }
      crow[j] = v;
    }
  }
}

/// KernelTable::axpy body — resolves the runtime pair flag to the template.
template <class V, int NR>
void axpy_entry(const float* vals, const int* offs, int nnz, const float* bp0,
                std::ptrdiff_t pstride, float* crow, int w, bool pair,
                bool epi, float bias, bool relu) {
  if (pair) {
    axpy_row_panels<V, NR, true>(vals, offs, nnz, bp0, pstride, crow, w, epi,
                                 bias, relu);
  } else {
    axpy_row_panels<V, NR, false>(vals, offs, nnz, bp0, pstride, crow, w, epi,
                                  bias, relu);
  }
}

/// KernelTable::axpy_rows body, `Rows` rows per call.
template <class V, int NR, int Rows>
void axpy_rows_entry(const float* vals, std::ptrdiff_t vstride,
                     const int* offs, int nnz, const float* bp0,
                     std::ptrdiff_t pstride, float* crow,
                     std::ptrdiff_t cstride, int w, bool pair, bool epi,
                     const float* bias, bool relu) {
  if (pair) {
    axpy_rows_panels<V, NR, Rows, true>(vals, vstride, offs, nnz, bp0, pstride,
                                        crow, cstride, w, epi, bias, relu);
  } else {
    axpy_rows_panels<V, NR, Rows, false>(vals, vstride, offs, nnz, bp0,
                                         pstride, crow, cstride, w, epi, bias,
                                         relu);
  }
}

/// KernelTable::dot body — resolves mask presence and full-tile shape to the
/// eight dot_tile instantiations. The mask flags key off pointer nullness;
/// the driver passes nullptr for masks its family does not carry.
template <class V, int NR>
void dot_entry(const float* a, float* c, int k, int n, std::int64_t i0, int h,
               int j0, int w, int bk, const float* bp,
               const unsigned char* rmask, const unsigned char* cmask,
               const float* bias, bool relu) {
  const bool full = (h == kMR && w == NR);
  switch ((rmask ? 4 : 0) | (cmask ? 2 : 0) | (full ? 1 : 0)) {
    case 0:
      dot_tile<V, NR, false, false, false>(a, c, k, n, i0, h, j0, w, bk, bp,
                                           rmask, cmask, bias, relu);
      break;
    case 1:
      dot_tile<V, NR, false, false, true>(a, c, k, n, i0, h, j0, w, bk, bp,
                                          rmask, cmask, bias, relu);
      break;
    case 2:
      dot_tile<V, NR, false, true, false>(a, c, k, n, i0, h, j0, w, bk, bp,
                                          rmask, cmask, bias, relu);
      break;
    case 3:
      dot_tile<V, NR, false, true, true>(a, c, k, n, i0, h, j0, w, bk, bp,
                                         rmask, cmask, bias, relu);
      break;
    case 4:
      dot_tile<V, NR, true, false, false>(a, c, k, n, i0, h, j0, w, bk, bp,
                                          rmask, cmask, bias, relu);
      break;
    case 5:
      dot_tile<V, NR, true, false, true>(a, c, k, n, i0, h, j0, w, bk, bp,
                                         rmask, cmask, bias, relu);
      break;
    case 6:
      dot_tile<V, NR, true, true, false>(a, c, k, n, i0, h, j0, w, bk, bp,
                                         rmask, cmask, bias, relu);
      break;
    default:
      dot_tile<V, NR, true, true, true>(a, c, k, n, i0, h, j0, w, bk, bp,
                                        rmask, cmask, bias, relu);
      break;
  }
}

}  // namespace stepping::microkernel::detail
