#include "tensor/gemm_kernel.h"

#include <algorithm>
#include <cstddef>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm_isa.h"
#include "tensor/gemm_microkernel.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace stepping {

namespace {

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

std::mutex& cfg_mutex() {
  static std::mutex mu;
  return mu;
}

GemmBlocking& cfg_slot() {
  static GemmBlocking cfg;
  return cfg;
}

obs::Counter& blocked_dispatches() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_blocked_total");
  return c;
}

obs::Counter& ref_dispatches() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_ref_total");
  return c;
}

obs::Counter& packs_performed() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_packs_total");
  return c;
}

}  // namespace

GemmBlocking gemm_blocking() {
  std::lock_guard<std::mutex> lock(cfg_mutex());
  return cfg_slot();
}

void set_gemm_blocking(const GemmBlocking& cfg) {
  std::lock_guard<std::mutex> lock(cfg_mutex());
  cfg_slot() = cfg;
}

bool gemm_uses_blocked(std::int64_t m, std::int64_t k, std::int64_t n,
                       const GemmBlocking& cfg) {
  if (cfg.force_ref) return false;
  if (m <= 0 || k <= 0 || n <= 0) return false;
  if (k < cfg.min_k) return false;
  return m * k * n >= cfg.min_macs;
}

// ---------------------------------------------------------------------------
// Blocked path.
// ---------------------------------------------------------------------------

namespace {

enum class Fam { kAxpy, kDot };

constexpr int kMR = kGemmMR;

/// Pack the (pc..pc+bk) x (jc..jc+bn) block of B into nr-wide panels:
/// out[q * bk * nr + p * nr + jr] holds B(pc+p, jc+q*nr+jr), zero-padded
/// past the last column. BTrans reads the transposed operand Bt (n x k).
/// `nr` is the active ISA tier's panel width (runtime since ISSUE 6).
/// Panel contents depend only on B and nr, never on the partition, so
/// parallel packing is deterministic.
template <bool BTrans>
void pack_b_block(const float* b, int k_dim, int n_dim, int pc, int jc, int bk,
                  int bn, int nr, float* out) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm.pack");
  (void)k_dim;
  (void)n_dim;
  const int panels = (bn + nr - 1) / nr;
  parallel_for_cost(0, panels, static_cast<std::int64_t>(bk) * nr,
                    [&](std::int64_t q0, std::int64_t q1) {
    for (std::int64_t q = q0; q < q1; ++q) {
      const int j0 = jc + static_cast<int>(q) * nr;
      const int w = std::min(nr, jc + bn - j0);
      float* dst = out + static_cast<std::size_t>(q) * bk * nr;
      if constexpr (!BTrans) {
        for (int p = 0; p < bk; ++p) {
          const float* src = b + static_cast<std::size_t>(pc + p) * n_dim + j0;
          int jr = 0;
          for (; jr < w; ++jr) dst[jr] = src[jr];
          for (; jr < nr; ++jr) dst[jr] = 0.0f;
          dst += nr;
        }
      } else {
        // Bt is (n x k): read column j0+jr of B contiguously from Bt's row.
        for (int jr = 0; jr < w; ++jr) {
          const float* src = b + static_cast<std::size_t>(j0 + jr) * k_dim + pc;
          for (int p = 0; p < bk; ++p) dst[p * nr + jr] = src[p];
        }
        for (int jr = w; jr < nr; ++jr) {
          for (int p = 0; p < bk; ++p) dst[p * nr + jr] = 0.0f;
        }
      }
    }
  });
  packs_performed().inc();
}

// The micro-kernels themselves (axpy_row_panels / dot_tile) moved to
// gemm_microkernel_impl.h for ISSUE 6: they are compiled once per ISA tier
// with that tier's -m flags (gemm_microkernel_{scalar,sse,avx2,avx512}.cc)
// and reached through the active KernelTable's function pointers. The
// driver below is tier-agnostic — it reads the table once per call and
// threads the tier's panel width `nr` through packing and tiling.

template <Fam F, bool ATrans, bool RowMask, bool ColMask, bool KMask>
void blocked_run(const float* a, const float* b, float* c, int m, int k, int n,
                 const unsigned char* rmask, const unsigned char* cmask,
                 const unsigned char* kmask, const GemmBlocking& cfg,
                 const float* bias = nullptr, bool relu = false) {
  obs::TraceScope span("gemm.blocked", "kernel");
  const microkernel::KernelTable& kt = microkernel::active_table();
  const int nr = kt.nr;
  const int nc = std::max(cfg.nc, nr);
  const int mc = std::max(cfg.mc, kMR);
  // Dot-family contraction is never chunked: accumulators must span the
  // full k so C sees exactly one update (determinism contract).
  const int kc = (F == Fam::kDot) ? k : std::max(1, std::min(cfg.kc, k));
  span.arg("m", m);
  span.arg("k", k);
  span.arg("n", n);
  span.arg("isa", static_cast<int>(kt.tier));

  ArenaScope scope;
  const int max_bn = std::min(nc, n);
  const int max_panels = (max_bn + nr - 1) / nr;
  float* packed = scope.alloc_floats(static_cast<std::size_t>(max_panels) * nr *
                                     static_cast<std::size_t>(kc));

  for (int jc = 0; jc < n; jc += nc) {
    const int bn = std::min(nc, n - jc);
    const int panels = (bn + nr - 1) / nr;
    for (int pc = 0; pc < k; pc += kc) {
      const int bk = std::min(kc, k - pc);
      pack_b_block<F == Fam::kDot>(b, k, n, pc, jc, bk, bn, nr, packed);
      // Fused epilogue fires on the chunk that completes the contraction
      // (the dot family never chunks, so always there).
      const bool epi = bias != nullptr && pc + bk == k;
      const std::ptrdiff_t pstride = static_cast<std::ptrdiff_t>(bk) * nr;
      // Rows are partitioned exactly like the reference kernels; every C
      // row is owned by one chunk and element values are independent of
      // the partition, so any thread count yields identical bits.
      parallel_for_cost(0, m, static_cast<std::int64_t>(bk) * bn,
                        [&](std::int64_t ch0, std::int64_t ch1) {
        // Per-thread compact streams (axpy family): the gather touches A
        // once per (row group, KC chunk) and is amortized over every panel
        // of the NC block.
        ArenaScope ws(Arena::this_thread());
        float* vals = nullptr;
        int* offs = nullptr;
        int* nnz = nullptr;
        if constexpr (F == Fam::kAxpy) {
          vals = ws.alloc_floats(static_cast<std::size_t>(mc) * bk);
          offs = static_cast<int*>(
              ws.alloc(static_cast<std::size_t>(mc) * bk * sizeof(int)));
          nnz = static_cast<int*>(
              ws.alloc(static_cast<std::size_t>(mc) * sizeof(int)));
        }
        for (std::int64_t g0 = ch0; g0 < ch1; g0 += mc) {
          const std::int64_t g1 = std::min<std::int64_t>(g0 + mc, ch1);
          if constexpr (F == Fam::kAxpy) {
            const int rows = static_cast<int>(g1 - g0);
            for (int r = 0; r < rows; ++r) {
              const std::int64_t i = g0 + r;
              if (RowMask && rmask[i] == 0) {
                nnz[r] = -1;  // row skipped entirely; C never touched
                continue;
              }
              int t = 0;
              float* vrow = vals + static_cast<std::size_t>(r) * bk;
              int* irow = offs + static_cast<std::size_t>(r) * bk;
              for (int p = 0; p < bk; ++p) {
                if constexpr (KMask) {
                  if (kmask[pc + p] == 0) continue;
                }
                const float av =
                    ATrans ? a[static_cast<std::size_t>(pc + p) * m + i]
                           : a[static_cast<std::size_t>(i) * k + pc + p];
                if (av == 0.0f) continue;  // the reference's masked skip
                vrow[t] = av;
                irow[t] = p * nr;  // B row p's offset inside a panel
                ++t;
              }
              nnz[r] = t;
            }
            int q = 0;
            for (; q + 1 < panels; q += 2) {
              // Panel pairs: 2*NR columns per pass, four independent
              // accumulator vectors — enough ILP to hide FP-add latency.
              const float* bp = packed + static_cast<std::size_t>(q) * bk * nr;
              const int j0 = jc + q * nr;
              const int w = std::min(2 * nr, jc + bn - j0);
              for (int r = 0; r < rows; ++r) {
                if (nnz[r] < 0) continue;
                float* crow = c + (static_cast<std::size_t>(g0) + r) * n + j0;
                kt.axpy(vals + static_cast<std::size_t>(r) * bk,
                        offs + static_cast<std::size_t>(r) * bk, nnz[r], bp,
                        pstride, crow, w, /*pair=*/true, epi,
                        epi ? bias[g0 + r] : 0.0f, relu);
              }
            }
            if (q < panels) {
              const float* bp = packed + static_cast<std::size_t>(q) * bk * nr;
              const int j0 = jc + q * nr;
              const int w = std::min(nr, jc + bn - j0);
              for (int r = 0; r < rows; ++r) {
                if (nnz[r] < 0) continue;
                float* crow = c + (static_cast<std::size_t>(g0) + r) * n + j0;
                kt.axpy(vals + static_cast<std::size_t>(r) * bk,
                        offs + static_cast<std::size_t>(r) * bk, nnz[r], bp,
                        pstride, crow, w, /*pair=*/false, epi,
                        epi ? bias[g0 + r] : 0.0f, relu);
              }
            }
            continue;
          }
          for (int q = 0; q < panels; ++q) {
            // One B micro-panel stays L1-resident across the whole MC row
            // group before moving to the next panel.
            const float* bp = packed + static_cast<std::size_t>(q) * bk * nr;
            const int j0 = jc + q * nr;
            const int w = std::min(nr, jc + bn - j0);
            const float* ebias = epi ? bias : nullptr;
            for (std::int64_t i0 = g0; i0 < g1; i0 += kMR) {
              const int h = static_cast<int>(
                  std::min<std::int64_t>(kMR, g1 - i0));
              kt.dot(a, c, k, n, i0, h, j0, w, bk, bp,
                     RowMask ? rmask : nullptr, ColMask ? cmask : nullptr,
                     ebias, relu);
            }
          }
        }
      });
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    microkernel::active_table().fb_gemm(a, b, c, m, k, n, accumulate);
    return;
  }
  blocked_dispatches().inc();
  if (!accumulate) std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kAxpy, false, false, false, false>(
      a, b, c, m, k, n, nullptr, nullptr, nullptr, cfg);
}

void gemm_tn(const float* at, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    microkernel::active_table().fb_gemm_tn(at, b, c, m, k, n, accumulate);
    return;
  }
  blocked_dispatches().inc();
  if (!accumulate) std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kAxpy, true, false, false, false>(
      at, b, c, m, k, n, nullptr, nullptr, nullptr, cfg);
}

void gemm_nt(const float* a, const float* bt, float* c, int m, int k, int n,
             bool accumulate) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    microkernel::active_table().fb_gemm_nt(a, bt, c, m, k, n, accumulate);
    return;
  }
  blocked_dispatches().inc();
  if (!accumulate) std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kDot, false, false, false, false>(
      a, bt, c, m, k, n, nullptr, nullptr, nullptr, cfg);
}

void gemm_nt_rows_acc(const float* a, const float* bt, float* c, int m, int k,
                      int n, const unsigned char* row_active) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    microkernel::active_table().fb_gemm_nt_rows_acc(a, bt, c, m, k, n, row_active);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kDot, false, true, false, false>(
      a, bt, c, m, k, n, row_active, nullptr, nullptr, cfg);
}

void gemm_tn_rows(const float* at, const float* b, float* c, int m, int k,
                  int n, const unsigned char* k_active) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    microkernel::active_table().fb_gemm_tn_rows(at, b, c, m, k, n, k_active);
    return;
  }
  blocked_dispatches().inc();
  std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kAxpy, true, false, false, true>(
      at, b, c, m, k, n, nullptr, nullptr, k_active, cfg);
}

void gemm_nt_cols_bias(const float* a, const float* bt, float* c, int m, int k,
                       int n, const unsigned char* col_active,
                       const float* bias, bool relu) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    microkernel::active_table().fb_gemm_nt_cols_bias(a, bt, c, m, k, n, col_active, bias, relu);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kDot, false, false, true, false>(
      a, bt, c, m, k, n, nullptr, col_active, nullptr, cfg, bias, relu);
}

void gemm_rows_bias(const float* a, const float* b, float* c, int m, int k,
                    int n, const unsigned char* row_active, const float* bias,
                    bool relu) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    microkernel::active_table().fb_gemm_rows_bias(a, b, c, m, k, n, row_active, bias, relu);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kAxpy, false, true, false, false>(
      a, b, c, m, k, n, row_active, nullptr, nullptr, cfg, bias, relu);
}

}  // namespace stepping
