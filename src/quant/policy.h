// Precision of an inference forward.
//
//  * fp32 (default): the bitwise-deterministic reference path everywhere;
//  * int8: Dense/Conv2d body layers run the u8 x i8 GEMM providers
//    (tensor/i8gemm.h) with per-output-channel weight scales and per-layer
//    per-subnet-level activation scales (quant/calibration.h); accuracy is
//    gated statistically (<= 1.0 top-1 pp vs fp32 per level), not bitwise.
//
// A forward picks its precision through SubnetContext::precision.
// `steppingnet eval --precision int8`, bench_ops and perfbench's traced probe
// run the int8 route; serve::Server serves fp32 only.
#pragma once

#include <string>

namespace stepping::quant {

/// kAuto has no effect: layers run it as fp32, and the server serves fp32 at
/// every setting.
enum class Precision : int { kFp32 = 0, kInt8 = 1, kAuto = 2 };

/// Parse a --precision value: "fp32" or "int8", exact and lowercase.
/// Returns false (out untouched) for anything else.
bool parse_precision(const std::string& s, Precision* out);

}  // namespace stepping::quant
