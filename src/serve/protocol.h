// Trivial length-prefixed binary protocol for the loopback TCP front end.
//
// Every frame is a u32 payload length followed by the payload. Integers and
// floats are encoded via memcpy in host byte order — the protocol is
// loopback-only (client and server share one machine), so no byte swapping
// is performed; the fixed-width layout below is the contract.
//
// Request payload:
//   u8  opcode            0 = infer, 1 = shutdown server, 2 = stats,
//                         3 = stats_prom, 4 = timeline
//   f64 deadline_ms       relative deadline; <= 0 = none        (infer only)
//   i64 mac_budget        per-request MAC budget; 0 = unlimited (infer only)
//   u32 c, h, w           input image shape                     (infer only)
//   f32 data[c*h*w]       input image                           (infer only)
//
// Reply payload (infer):
//   u32 exit_subnet
//   f64 confidence
//   u8  deadline_missed
//   i64 macs
//   f64 first_result_ms   submission -> preliminary result
//   f64 final_ms          submission -> final result
//   u32 num_logits
//   f32 logits[num_logits]
//
// A shutdown request is acknowledged with an empty (zero-length) frame.
//
// A stats request (opcode only, no further fields) is answered with one
// frame whose payload is the raw UTF-8 bytes of the server's metrics
// registry JSON snapshot (serve::Server::metrics_json()). A stats_prom
// request (opcode 3, same opcode-only frame shape) is answered with the
// Prometheus text exposition of the same registry
// (serve::Server::metrics_prometheus()) — scrape-ready without a sidecar.
//
// A timeline request (opcode 4, opcode-only) is answered with the flight
// recorder's postmortem JSON dump (serve::Server::postmortems_json()):
// retained deadline-miss and worst-straggler records, each with its full
// causal timeline and the planner's predicted-vs-actual per-level costs.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace stepping::serve {

enum class Opcode : std::uint8_t {
  kInfer = 0,
  kShutdown = 1,
  kStats = 2,
  kStatsProm = 3,
  kTimeline = 4,
};

/// Frames larger than this are rejected and the connection dropped
/// (defensive bound; a 512x512x64 float image is ~64 MiB).
inline constexpr std::size_t kMaxFramePayload = 256u << 20;

struct WireRequest {
  Opcode opcode = Opcode::kInfer;
  double deadline_ms = 0.0;
  std::int64_t mac_budget = 0;
  std::uint32_t c = 0, h = 0, w = 0;
  std::vector<float> data;
};

struct WireReply {
  std::uint32_t exit_subnet = 0;
  double confidence = 0.0;
  std::uint8_t deadline_missed = 0;
  std::int64_t macs = 0;
  double first_result_ms = 0.0;
  double final_ms = 0.0;
  std::vector<float> logits;
};

std::vector<std::uint8_t> encode_request(const WireRequest& req);
bool decode_request(const std::vector<std::uint8_t>& payload, WireRequest& req);

std::vector<std::uint8_t> encode_reply(const WireReply& reply);
bool decode_reply(const std::vector<std::uint8_t>& payload, WireReply& reply);

/// Write one `u32 length + payload` frame; retries partial sends.
bool write_frame(int fd, const std::vector<std::uint8_t>& payload);

/// Read one frame into `payload`. Returns false on EOF, I/O error, or a
/// length prefix beyond `max_payload`. `payload` grows as the body arrives,
/// so a length prefix the peer does not back with bytes sizes it at most one
/// 1 MiB chunk past the bytes that came.
bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::size_t max_payload = kMaxFramePayload);

}  // namespace stepping::serve
