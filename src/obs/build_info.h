// Build identity exposition (ISSUE 8): the `stepping_build_info` labeled
// gauge carries version / git sha / ISA tier so fleet dashboards can slice
// every other metric by deployment identity.
//
// Version and git sha are baked in at compile time (STEPPING_VERSION and
// STEPPING_GIT_SHA compile definitions, confined to build_info.cc so a new
// sha only recompiles this one file). The ISA tier is a runtime property
// the *caller* passes in: this code lives in stepping_util, which cannot
// depend on the tensor library that owns ISA detection.
#pragma once

#include <string>

namespace stepping::obs {

class Registry;

/// Compile-time version string (CMake project VERSION), "unknown" when the
/// build did not define it.
const char* build_version();

/// Short git sha of the built tree, "unknown" outside a git checkout.
const char* build_git_sha();

/// Register the `stepping_build_info` info metric on `reg` with labels
/// {version, git_sha, isa}. Idempotent; calling again replaces the labels.
void register_build_info(Registry& reg, const std::string& isa);

}  // namespace stepping::obs
