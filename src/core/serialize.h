// Binary serialization of a constructed SteppingNet: weights, biases,
// BatchNorm state, subnet assignments, prune masks, and head flags.
//
// Purpose: construction + distillation are training-time; deployment loads
// the finished artifact and only ever runs inference / incremental step-up.
// The format is a simple tagged little-endian stream (magic + version +
// per-layer records); it round-trips bit-exactly and is validated against
// the live network's topology on load (wrong-architecture files are
// rejected, not silently misloaded).
#pragma once

#include <iosfwd>
#include <string>

#include "nn/network.h"

namespace stepping {

/// Serialize `net` (must be wired). Returns false on I/O failure.
bool save_network(Network& net, std::ostream& out);
bool save_network(Network& net, const std::string& path);

/// Load into `net`, which must have been built with the same topology
/// (layer kinds, unit counts, weight shapes). Throws std::runtime_error on
/// format/topology mismatch, a unit subnet id below 1, or any byte after
/// the last layer's record (the stream must end there); returns false on
/// I/O failure, a truncated file included. The whole file is parsed and
/// checked before anything is written, so on either failure `net` (every
/// parameter and its version, assignment, mask and BatchNorm statistic) is
/// unchanged.
bool load_network(Network& net, std::istream& in);
bool load_network(Network& net, const std::string& path);

}  // namespace stepping
