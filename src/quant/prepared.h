// Prepared int8 weights + layer-facing int8 forward drivers (ISSUE 7).
//
// A layer's int8 operand is compact and per subnet level: the effective
// weights of only the units the level computes, over only the input units
// it can read (s(in) <= level), quantized per row and packed for the active
// provider. It is one blob per call — the i8 panel packing
// (tensor/i8gemm.h layout) followed by the per-row compensation sums and
// scales and the unit and input-unit lists it covers — built from the live
// weights, so no weight, mask or assignment edit can serve a stale operand.
//
// Dropping columns cannot change a bit. Every dropped weight of a computed
// unit is structurally zero (s(in) > level >= s(unit)), so its row's absmax,
// scale, codes and wsum are those of the full-width row, and every dropped
// term adds exactly 0 to the i32 accumulator. The per-level calibration
// (quant/calibration.h) supplies the activation scales.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/quantize.h"
#include "tensor/i8gemm.h"

namespace stepping {
struct Conv2dGeometry;
}

namespace stepping::quant {

/// A ready-to-run int8 operand: a shared handle on its blob plus typed views
/// into it. Valid while `blob` is held.
struct PreparedInt8 {
  std::shared_ptr<const std::vector<float>> blob;
  const std::int8_t* packed = nullptr;   ///< i8gemm panel layout
  const std::int32_t* wsum = nullptr;    ///< per-row sum of codes, size n
  const float* scale = nullptr;          ///< per-row sw_j, size n
  const std::int32_t* units = nullptr;   ///< row j is output unit units[j]
  const std::int32_t* groups = nullptr;  ///< input units read, k / group_cols
  const I8GemmKernel* kernel = nullptr;  ///< provider the panels target
  int n = 0;           ///< rows (output units computed)
  int k = 0;           ///< contraction depth (un-padded)
  int group_cols = 1;  ///< weight columns per input unit
};

/// Build the active provider's int8 operand of `w` (rows x cols row-major
/// effective weights) restricted to the rows `units` and the column groups
/// `groups` (both ascending; group g is columns
/// [g * group_cols, (g + 1) * group_cols)).
PreparedInt8 prepare_int8_weights(const float* w, int cols, int group_cols,
                                  const std::vector<int>& units,
                                  const std::vector<int>& groups);

/// Dense int8 forward over x (m x cols fp32): quantizes the operand's
/// column groups of each row, runs the m x k x n GEMM and writes
/// y (m x out_units) = dequant(...) with fused bias/ReLU for the operand's
/// units only; other entries of y are untouched.
void int8_dense_forward(const float* x, int m, int cols,
                        const PreparedInt8& pw, const ActQuant& aq,
                        const float* bias, bool relu, int out_units, float* y);

/// Conv2d int8 forward over the batch x (n, in_c, in_h, in_w): quantizes
/// each readable input channel once into a u8 plane padded with the zero
/// point, gathers every output position's window as bytes into one GEMM row
/// (the channel order and (kh, kw) order of im2col), runs one GEMM of
/// (n * out_h * out_w) x k x units over the batch (in image groups of at
/// most a few MiB of scratch), and writes the operand's units' planes of y
/// (n, out_c, out_h, out_w) with fused bias/ReLU; other planes are
/// untouched. No float im2col matrix is built.
void int8_conv_forward(const float* x, int n, const Conv2dGeometry& g,
                       const PreparedInt8& pw, const ActQuant& aq,
                       const float* bias, bool relu, float* y);

}  // namespace stepping::quant
