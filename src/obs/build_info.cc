#include "obs/build_info.h"

#include "obs/metrics.h"

#ifndef STEPPING_VERSION
#define STEPPING_VERSION "unknown"
#endif
#ifndef STEPPING_GIT_SHA
#define STEPPING_GIT_SHA "unknown"
#endif

namespace stepping::obs {

const char* build_version() { return STEPPING_VERSION; }

const char* build_git_sha() { return STEPPING_GIT_SHA; }

void register_build_info(Registry& reg, const std::string& isa) {
  reg.set_info("stepping_build_info", {{"version", build_version()},
                                       {"git_sha", build_git_sha()},
                                       {"isa", isa}});
}

}  // namespace stepping::obs
