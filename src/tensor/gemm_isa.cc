#include "tensor/gemm_isa.h"

#include <atomic>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "tensor/gemm_microkernel.h"
#include "util/cpuid.h"
#include "util/env.h"
#include "util/log.h"

namespace stepping {

namespace {

obs::Gauge& isa_tier_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("stepping_isa_tier");
  return g;
}

/// -1 = startup selection not yet performed.
std::atomic<int>& tier_slot() {
  static std::atomic<int> t{-1};
  return t;
}

std::mutex& tier_mutex() {
  static std::mutex mu;
  return mu;
}

IsaTier clamp_to_host(IsaTier t) {
  const IsaTier max = detected_isa_tier();
  return static_cast<int>(t) > static_cast<int>(max) ? max : t;
}

}  // namespace

const char* isa_tier_name(IsaTier t) {
  switch (t) {
    case IsaTier::kScalar:
      return "scalar";
    case IsaTier::kSse:
      return "sse";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool parse_isa_tier(const std::string& s, IsaTier* out) {
  if (s == "scalar") {
    *out = IsaTier::kScalar;
  } else if (s == "sse") {
    *out = IsaTier::kSse;
  } else if (s == "avx2") {
    *out = IsaTier::kAvx2;
  } else if (s == "avx512") {
    *out = IsaTier::kAvx512;
  } else {
    return false;
  }
  return true;
}

bool isa_tier_compiled(IsaTier t) {
  switch (t) {
    case IsaTier::kScalar:
      return true;
    case IsaTier::kSse:
#if defined(STEPPING_ISA_HAVE_SSE)
      return true;
#else
      return false;
#endif
    case IsaTier::kAvx2:
#if defined(STEPPING_ISA_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case IsaTier::kAvx512:
#if defined(STEPPING_ISA_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

IsaTier detected_isa_tier() {
  static const IsaTier tier = [] {
    const CpuFeatures& f = cpu_features();
    IsaTier t = IsaTier::kScalar;
    if (isa_tier_compiled(IsaTier::kSse) && f.sse2) t = IsaTier::kSse;
    if (isa_tier_compiled(IsaTier::kAvx2) && f.avx2 && f.fma)
      t = IsaTier::kAvx2;
    if (isa_tier_compiled(IsaTier::kAvx512) && f.avx512f)
      t = IsaTier::kAvx512;
    return t;
  }();
  return tier;
}

IsaTier env_isa_tier() {
  const std::string v = env_or("STEPPING_ISA", "");
  IsaTier req;
  if (v.empty() || !parse_isa_tier(v, &req)) return detected_isa_tier();
  return clamp_to_host(req);
}

IsaTier isa_tier() {
  int t = tier_slot().load(std::memory_order_acquire);
  if (t >= 0) return static_cast<IsaTier>(t);
  std::lock_guard<std::mutex> lock(tier_mutex());
  t = tier_slot().load(std::memory_order_relaxed);
  if (t >= 0) return static_cast<IsaTier>(t);
  const IsaTier host_max = detected_isa_tier();
  IsaTier sel = host_max;
  const std::string v = env_or("STEPPING_ISA", "");
  if (!v.empty()) {
    IsaTier req;
    if (!parse_isa_tier(v, &req)) {
      LOG_WARN << "STEPPING_ISA=" << v
               << " unrecognized (want scalar|sse|avx2|avx512); using "
               << isa_tier_name(sel);
    } else if (static_cast<int>(req) > static_cast<int>(host_max)) {
      LOG_WARN << "STEPPING_ISA=" << v
               << " exceeds host capability; clamping to "
               << isa_tier_name(host_max);
    } else {
      sel = req;
    }
  }
  LOG_INFO << "gemm isa tier: " << isa_tier_name(sel) << " (host max "
           << isa_tier_name(host_max) << ", cpu " << cpu_features_string()
           << ")";
  isa_tier_gauge().set(static_cast<int>(sel));
  tier_slot().store(static_cast<int>(sel), std::memory_order_release);
  return sel;
}

void set_isa_tier(IsaTier t) {
  if (!isa_tier_compiled(t) ||
      static_cast<int>(t) > static_cast<int>(detected_isa_tier())) {
    const IsaTier clamped = clamp_to_host(t);
    LOG_WARN << "set_isa_tier(" << isa_tier_name(t)
             << ") exceeds host capability; clamping to "
             << isa_tier_name(clamped);
    t = clamped;
  }
  std::lock_guard<std::mutex> lock(tier_mutex());
  tier_slot().store(static_cast<int>(t), std::memory_order_release);
  isa_tier_gauge().set(static_cast<int>(t));
}

int gemm_panel_width() { return microkernel::active_table().nr; }

namespace microkernel {

const KernelTable& active_table() {
  switch (isa_tier()) {
    case IsaTier::kScalar:
      break;
    case IsaTier::kSse:
#if defined(STEPPING_ISA_HAVE_SSE)
      return *table_sse();
#else
      break;
#endif
    case IsaTier::kAvx2:
#if defined(STEPPING_ISA_HAVE_AVX2)
      return *table_avx2();
#else
      break;
#endif
    case IsaTier::kAvx512:
#if defined(STEPPING_ISA_HAVE_AVX512)
      return *table_avx512();
#else
      break;
#endif
  }
  return *table_scalar();
}

}  // namespace microkernel

}  // namespace stepping
