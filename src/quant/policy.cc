#include "quant/policy.h"

namespace stepping::quant {

bool parse_precision(const std::string& s, Precision* out) {
  if (s == "fp32") {
    *out = Precision::kFp32;
  } else if (s == "int8") {
    *out = Precision::kInt8;
  } else {
    return false;
  }
  return true;
}

}  // namespace stepping::quant
