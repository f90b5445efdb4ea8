// Int8 GEMM provider family (ISSUE 7): u8 x i8 -> i32 row-major GEMM
// micro-kernels behind the runtime ISA dispatch of tensor/gemm_isa.h.
//
// C(m x n, i32) = A(m x k4, u8) . B(k x n, i8, packed), where k4 is k
// rounded up to a multiple of 4 and both operands are zero-padded past k.
// B is pre-packed from its transposed form Wt (n x k, the layout Dense /
// Conv2d weights already use) into nr-wide column panels of k-groups of 4:
//
//   packed[(q * k4 + 4*kg) * nr + jr * 4 + t] = Wt(q*nr + jr, 4*kg + t)
//
// i.e. at each contraction step a kernel reads 4*nr contiguous bytes — the
// natural operand shape of pmaddubsw (SSSE3/AVX2) and vpdpbusd (AVX512-VNNI).
//
// Exactness contract (stronger than the fp32 tiers' per-tier stability):
// every provider produces BIT-IDENTICAL i32 accumulators. The quantization
// scheme (quant/quantize.h) emits activations in [0, 127] and weights in
// [-127, 127], so any adjacent-pair sum |a0*w0 + a1*w1| <= 2*127*127 = 32258
// < 32767 — the i16 saturation step of pmaddubsw is unreachable, and the
// remaining arithmetic is exact integer math in i32 (k4 * 32258 stays far
// below 2^31 for every supported k). The scalar provider replays the same
// products, so scalar == ssse3 == avx2 == avx512vnni bit for bit, and the
// "documented dequant error bound" between providers is exactly zero: any
// cross-provider difference is a bug, asserted by memcmp in tests and the
// bench_ops int8 sweep.
//
// Provider selection follows the active fp32 tier (isa_tier(), including
// STEPPING_ISA pins) and then clamps to what cpuid actually reports:
//   scalar -> scalar; sse -> ssse3 (pmaddubsw) when the host has SSSE3;
//   avx2 -> avx2; avx512 -> avx512vnni when cpuid reports VNNI, else avx2.
// Packed panels are nr-dependent, so pack-cache keys carry the provider id
// (gemm_kernel.h, pack kind 1).
#pragma once

#include <cstddef>
#include <cstdint>

namespace stepping {

/// One int8 GEMM provider. `id` is a stable identity for pack-cache keys
/// (panel layout depends on nr); `run` computes every nr-wide column panel
/// and stores the n valid columns of each row of C.
struct I8GemmKernel {
  int id;
  const char* name;
  int nr;  ///< packed panel width (columns)
  void (*run)(const std::uint8_t* a, int m, int k4, const std::int8_t* packed,
              int n, std::int32_t* c);
};

/// k rounded up to the kernel contraction granule (4).
inline int i8gemm_k4(int k) { return (k + 3) & ~3; }

/// Bytes of the packed operand for a (k x n) weight matrix at panel width nr.
inline std::size_t i8gemm_packed_bytes(int k, int n, int nr) {
  const std::size_t panels = (static_cast<std::size_t>(n) + nr - 1) / nr;
  return panels * static_cast<std::size_t>(nr) *
         static_cast<std::size_t>(i8gemm_k4(k));
}

/// Pack Wt (n x k, row-major, already quantized to i8) into the panel layout
/// above. Pads columns past n and contraction entries past k with 0, so
/// padded lanes contribute exactly 0 to every accumulator.
void i8gemm_pack(const std::int8_t* wt, int k, int n, int nr,
                 std::int8_t* out);

/// The provider the active ISA tier selects (see file comment). Re-evaluated
/// on every call so STEPPING_ISA pins and set_isa_tier() take effect.
const I8GemmKernel& i8gemm_kernel();

/// The scalar reference provider (parity baseline; always available).
const I8GemmKernel& i8gemm_ref_kernel();

/// Drive one provider over A (m x k, row-major quantized u8 rows padded to
/// k4 with zeros) against pre-packed B: partitions rows across the thread
/// pool (rows are independent, integer math is exact, so the partition can
/// never change bits) and stores all of C(m x n, i32). Callers that compute
/// a subset of a layer's units pack only those units (quant/prepared.h), so
/// there is no column mask.
void i8gemm_run(const I8GemmKernel& kernel, const std::uint8_t* a, int m,
                int k, const std::int8_t* packed, int n, std::int32_t* c);

}  // namespace stepping
