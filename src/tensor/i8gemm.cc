#include "tensor/i8gemm.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"
#include "tensor/gemm_isa.h"
#include "util/cpuid.h"
#include "util/thread_pool.h"

namespace stepping {

namespace i8detail {

// Per-tier kernels, each compiled in its own TU with that tier's -m flags
// (see tensor/CMakeLists.txt). The scalar kernel lives below in this TU.
#if defined(STEPPING_I8_HAVE_SSSE3)
void run_ssse3(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
               int n, std::int32_t* c);
#endif
#if defined(STEPPING_I8_HAVE_AVX2)
void run_avx2(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
              int n, std::int32_t* c);
#endif
#if defined(STEPPING_I8_HAVE_VNNI)
void run_vnni(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
              int n, std::int32_t* c);
#endif

namespace {

constexpr int kScalarNr = 8;

/// Reference kernel: same panel layout, plain integer loops. Products and
/// sums are exact in i32, so this defines the bits every SIMD provider must
/// reproduce.
void run_scalar(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
                int n, std::int32_t* c) {
  const int nr = kScalarNr;
  const int panels = (n + nr - 1) / nr;
  const int kg_end = k4 / 4;
  for (int i = 0; i < m; ++i) {
    const std::uint8_t* ar = a + static_cast<std::size_t>(i) * k4;
    for (int q = 0; q < panels; ++q) {
      const std::int8_t* wp = packed + static_cast<std::size_t>(q) * k4 * nr;
      const int j0 = q * nr;
      const int w = std::min(nr, n - j0);
      std::int32_t acc[kScalarNr] = {};
      for (int kg = 0; kg < kg_end; ++kg) {
        const std::uint8_t* a4 = ar + kg * 4;
        const std::int8_t* wk = wp + static_cast<std::size_t>(kg) * 4 * nr;
        for (int jr = 0; jr < nr; ++jr) {
          const std::int8_t* wj = wk + jr * 4;
          acc[jr] += static_cast<std::int32_t>(a4[0]) * wj[0] +
                     static_cast<std::int32_t>(a4[1]) * wj[1] +
                     static_cast<std::int32_t>(a4[2]) * wj[2] +
                     static_cast<std::int32_t>(a4[3]) * wj[3];
        }
      }
      std::int32_t* cr = c + static_cast<std::size_t>(i) * n + j0;
      for (int jr = 0; jr < w; ++jr) cr[jr] = acc[jr];
    }
  }
}

}  // namespace
}  // namespace i8detail

namespace {

const I8GemmKernel kScalarKernel{0, "scalar", i8detail::kScalarNr,
                                 i8detail::run_scalar};
#if defined(STEPPING_I8_HAVE_SSSE3)
const I8GemmKernel kSsse3Kernel{1, "ssse3", 4, i8detail::run_ssse3};
#endif
#if defined(STEPPING_I8_HAVE_AVX2)
const I8GemmKernel kAvx2Kernel{2, "avx2", 8, i8detail::run_avx2};
#endif
#if defined(STEPPING_I8_HAVE_VNNI)
const I8GemmKernel kVnniKernel{3, "avx512vnni", 16, i8detail::run_vnni};
#endif

}  // namespace

void i8gemm_pack(const std::int8_t* wt, int k, int n, int nr,
                 std::int8_t* out) {
  const int k4 = i8gemm_k4(k);
  const int panels = (n + nr - 1) / nr;
  const int kg_end = k4 / 4;
  for (int q = 0; q < panels; ++q) {
    std::int8_t* dst = out + static_cast<std::size_t>(q) * k4 * nr;
    for (int kg = 0; kg < kg_end; ++kg) {
      for (int jr = 0; jr < nr; ++jr) {
        const int j = q * nr + jr;
        for (int t = 0; t < 4; ++t) {
          const int kk = kg * 4 + t;
          dst[static_cast<std::size_t>(kg) * 4 * nr + jr * 4 + t] =
              (j < n && kk < k) ? wt[static_cast<std::size_t>(j) * k + kk]
                                : std::int8_t{0};
        }
      }
    }
  }
}

const I8GemmKernel& i8gemm_ref_kernel() { return kScalarKernel; }

const I8GemmKernel& i8gemm_kernel() {
  const CpuFeatures& cpu = cpu_features();
  switch (isa_tier()) {
    case IsaTier::kAvx512:
#if defined(STEPPING_I8_HAVE_VNNI)
      if (cpu.avx512vnni) return kVnniKernel;
#endif
      [[fallthrough]];
    case IsaTier::kAvx2:
#if defined(STEPPING_I8_HAVE_AVX2)
      if (cpu.avx2) return kAvx2Kernel;
#endif
      [[fallthrough]];
    case IsaTier::kSse:
#if defined(STEPPING_I8_HAVE_SSSE3)
      if (cpu.ssse3) return kSsse3Kernel;
#endif
      [[fallthrough]];
    case IsaTier::kScalar:
    default:
      return kScalarKernel;
  }
}

void i8gemm_run(const I8GemmKernel& kernel, const std::uint8_t* a, int m,
                int k, const std::int8_t* packed, int n, std::int32_t* c) {
  obs::TraceScope span("i8gemm", "kernel");
  span.arg("m", m);
  span.arg("k", k);
  span.arg("n", n);
  span.arg("isa", kernel.id);
  const int k4 = i8gemm_k4(k);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k4) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    kernel.run(a + i0 * k4, static_cast<int>(i1 - i0), k4, packed, n,
               c + i0 * n);
  });
}

}  // namespace stepping
