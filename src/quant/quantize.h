// Int8 quantization core (ISSUE 7).
//
// Scheme (chosen so every int8 GEMM provider is bit-exact, see i8gemm.h):
//
//  * Weights: symmetric per-output-channel i8. For channel j with
//    absmax_j = max_k |w(j,k)|, scale sw_j = absmax_j / 127 and
//    q(j,k) = clamp(round_even(w(j,k) / sw_j), -127, 127). A zero-range
//    channel (absmax_j == 0) gets sw_j = 1 and all-zero codes, so its
//    output degenerates to the bias exactly. -128 is never produced
//    (symmetric range), which the saturation-freedom argument needs.
//    A layer quantizes only the rows and columns a subnet level computes
//    (quant/prepared.h); the columns it drops are structurally zero, and
//    zeros change neither absmax_j nor any code, so each row's scale, codes
//    and wsum_j are those of its full-width row.
//  * Activations: asymmetric-offset u8 restricted to [0, 127], per layer
//    AND per subnet level (each level masks a different effective unit set,
//    so ranges differ level to level — quant/calibration.h records them).
//    Non-negative inputs (post-ReLU): zero_point 0, sa = absmax / 127,
//    q = clamp(round_even(x / sa), 0, 127). General inputs: zero_point 64,
//    sa = absmax / 63, q = clamp(round_even(x / sa), -64, 63) + 64.
//    x == 0 always maps exactly to the zero point, so structurally-masked
//    (zeroed) input features and a conv's zero padding contribute exactly
//    0 after compensation.
//  * Rounding semantics: round-half-to-even (std::nearbyintf under the
//    default FP environment), then saturate to the target range. NaN maps
//    to the zero point (calibrated data should never contain NaN).
//  * Dequantization: y(i,j) = float(acc(i,j) - zp * wsum_j) * (sa * sw_j)
//    + bias_j, with wsum_j = sum_k q(j,k) precomputed at weight-quant time.
//    The identity sum_k (a - zp) * q = acc - zp * wsum makes the u8 offset
//    exact — integer math throughout, one fp32 rounding chain per output,
//    evaluated in this single TU so every provider shares its bits.
#pragma once

#include <cstdint>
#include <vector>

namespace stepping::quant {

/// Round-half-even then saturate to [lo, hi]. `inv_scale` is 1/scale
/// (callers hoist the division); NaN returns `zp`.
int quantize_value(float x, float inv_scale, int zp, int lo, int hi);

/// Per-output-channel symmetric int8 weights of one layer.
struct WeightQuant {
  std::vector<std::int8_t> q;      ///< n x k row-major codes
  std::vector<float> scale;       ///< per-channel sw_j, size n
  std::vector<std::int32_t> wsum; ///< per-channel sum_k q(j,k), size n
};

/// Quantize Wt (n x k row-major, the Dense/Conv2d effective-weight layout)
/// per output channel (row).
void quantize_weights_per_channel(const float* wt, int n, int k,
                                  WeightQuant* out);

/// Per-tensor variant (one scale for the whole matrix) — parity baseline
/// for the degenerate-1-channel tests and accuracy comparisons.
void quantize_weights_per_tensor(const float* wt, int n, int k,
                                 WeightQuant* out);

/// Activation quantization parameters derived from a calibrated range.
struct ActQuant {
  float scale = 1.0f;  ///< sa; 1.0 for a zero range (all codes == zp)
  int zero_point = 0;  ///< 0 (non-negative inputs) or 64 (general)
};

/// Parameters for a calibrated |x| bound. `nonneg` selects the zero_point-0
/// layout (post-ReLU inputs).
ActQuant activation_params(float absmax, bool nonneg);

/// Quantize x (m x k row-major fp32) into out (m x k4 u8), zero-padding
/// columns [k, k4). Values beyond the calibrated range saturate.
void quantize_activations(const float* x, int m, int k, int k4,
                          const ActQuant& aq, std::uint8_t* out);

namespace detail {

/// Quantize one contiguous row of `k` floats to u8 codes, zero-padding to
/// `k4`. The SINGLE rounding/packing implementation every activation
/// quantizer (dense rows, dense column groups, conv input planes) funnels
/// through — bit-exact with quantize_value on every input, so no caller
/// can change a code by how it splits a row.
void quantize_row(const float* row, int k, int k4, float inv, int zp,
                  std::uint8_t* dst);

}  // namespace detail

/// Dequantize the (m x n) accumulators of a compact operand (one whose
/// column j is output unit units[j]) into y. Row i is output position
/// i % spatial of image i / spatial, so the value lands at
///   y[((i / spatial) * out_units + units[j]) * spatial + i % spatial]
///     = float(acc(i, j) - zp * wsum[j]) * (sa * scale[j]) + bias[units[j]],
/// then ReLU if `relu`. Nothing else in y is written. Dense passes
/// spatial = 1. Single compiled instance => bitwise-identical outputs
/// across providers.
void dequantize_bias(const std::int32_t* acc, int m, int n, const ActQuant& aq,
                     const float* scale, const std::int32_t* wsum,
                     const std::int32_t* units, const float* bias, bool relu,
                     int spatial, int out_units, float* y);

}  // namespace stepping::quant
