// Small-shape fallback kernels, instantiated per ISA tier.
// Include ONLY from gemm_microkernel_<tier>.cc (same rule as
// gemm_microkernel_impl.h).
//
// Shapes below the blocked path's dispatch gates (GemmBlocking::min_macs /
// min_k), and every shape under GemmBlocking::force_ref, run these
// row-parallel loops: the reference loops, and the only copy of them. The
// one per-tier degree of freedom is M::madd(a, b, c): two roundings
// (c + a * b) on the scalar/sse tiers, one fused rounding on the FMA tiers
// — matching the tier's micro-kernels term for term. That is what keeps
// EVERY dispatch route bitwise-consistent within a tier: a value computed
// through the fallback (small delta GEMMs in the incremental executor, say)
// must equal the same element computed through the blocked path (the full
// forward), or SteppingNet's exact-reuse invariant would break at the
// routing boundary.
//
// Per-element order is the reference order everywhere: the axpy-family
// loops accumulate into C a term at a time (ascending p, exact-zero A
// terms skipped), the dot-family loops run one fresh accumulator over the
// full contraction and touch C once. parallel_for_cost's static row
// partition keeps results thread-count-independent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/thread_pool.h"

namespace stepping::microkernel::detail {

template <class M>
void fb_gemm(const float* pa, const float* pb, float* pc, int m, int k, int n,
             bool accumulate) {
  if (!accumulate) std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;  // masked weights are exactly zero
        const float* brow = pb + static_cast<std::size_t>(p) * n;
        for (int j = 0; j < n; ++j) crow[j] = M::madd(av, brow[j], crow[j]);
      }
    }
  });
}

template <class M>
void fb_gemm_tn(const float* pat, const float* pb, float* pc, int m, int k,
                int n, bool accumulate) {
  if (!accumulate) std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (int p = 0; p < k; ++p) {
      const float* atrow = pat + static_cast<std::size_t>(p) * m;
      const float* brow = pb + static_cast<std::size_t>(p) * n;
      for (std::int64_t i = i0; i < i1; ++i) {
        const float av = atrow[i];
        if (av == 0.0f) continue;
        float* crow = pc + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] = M::madd(av, brow[j], crow[j]);
      }
    }
  });
}

template <class M>
void fb_gemm_nt(const float* pa, const float* pbt, float* pc, int m, int k,
                int n, bool accumulate) {
  if (!accumulate) std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        const float* btrow = pbt + static_cast<std::size_t>(j) * k;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc = M::madd(arow[p], btrow[p], acc);
        crow[j] += acc;
      }
    }
  });
}

template <class M>
void fb_gemm_nt_rows_acc(const float* pa, const float* pbt, float* pc, int m,
                         int k, int n, const unsigned char* row_active) {
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      if (!row_active[i]) continue;
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        const float* btrow = pbt + static_cast<std::size_t>(j) * k;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc = M::madd(arow[p], btrow[p], acc);
        crow[j] += acc;
      }
    }
  });
}

template <class M>
void fb_gemm_tn_rows(const float* pat, const float* pb, float* pc, int m,
                     int k, int n, const unsigned char* k_active) {
  std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (int p = 0; p < k; ++p) {
      if (!k_active[p]) continue;
      const float* atrow = pat + static_cast<std::size_t>(p) * m;
      const float* brow = pb + static_cast<std::size_t>(p) * n;
      for (std::int64_t i = i0; i < i1; ++i) {
        const float av = atrow[i];
        if (av == 0.0f) continue;
        float* crow = pc + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] = M::madd(av, brow[j], crow[j]);
      }
    }
  });
}

/// The head GEMM's fallback (a Dense head is small: m is the batch, n the
/// classes). One column's dot product is a chain of dependent multiply-adds,
/// so up to kChains active columns run side by side, p outermost. Each
/// column still starts from +0 and adds its terms in ascending p, so the
/// bits are fb_gemm_nt's (then + bias, then ReLU) on each active column.
template <class M>
void fb_gemm_nt_cols_bias(const float* pa, const float* pbt, float* pc, int m,
                          int k, int n, const unsigned char* col_active,
                          const float* bias, bool relu) {
  constexpr int kChains = 8;
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      int j = 0;
      while (j < n) {
        // The next kChains active columns; a short group repeats its first
        // column in the unused chains, whose sums are dropped.
        int cols[kChains];
        int count = 0;
        for (; j < n && count < kChains; ++j) {
          if (col_active[j]) cols[count++] = j;
        }
        if (count == 0) break;
        const float* bt[kChains];
        for (int t = 0; t < kChains; ++t) {
          bt[t] = pbt + static_cast<std::size_t>(cols[t < count ? t : 0]) * k;
        }
        float acc[kChains] = {};
        for (int p = 0; p < k; ++p) {
          const float av = arow[p];
          for (int t = 0; t < kChains; ++t) acc[t] = M::madd(av, bt[t][p], acc[t]);
        }
        for (int t = 0; t < count; ++t) {
          const int c = cols[t];
          float v = crow[c] + acc[t];
          v += bias[c];
          if (relu) v = v > 0.0f ? v : 0.0f;
          crow[c] = v;
        }
      }
    }
  });
}

template <class M>
void fb_gemm_rows_bias(const float* pa, const float* pb, float* pc, int m,
                       int k, int n, const unsigned char* row_active,
                       const float* bias, bool relu) {
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      if (!row_active[i]) continue;
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + static_cast<std::size_t>(p) * n;
        for (int j = 0; j < n; ++j) crow[j] = M::madd(av, brow[j], crow[j]);
      }
      const float bi = bias[i];
      for (int j = 0; j < n; ++j) crow[j] += bi;
      if (relu) {
        for (int j = 0; j < n; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
      }
    }
  });
}

}  // namespace stepping::microkernel::detail
