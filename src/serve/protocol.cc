#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <cstring>

namespace stepping::serve {

namespace {

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
bool get(const std::vector<std::uint8_t>& in, std::size_t& at, T& v) {
  if (at + sizeof(T) > in.size()) return false;
  std::memcpy(&v, in.data() + at, sizeof(T));
  at += sizeof(T);
  return true;
}

/// Appends the bytes of `v` (none for an empty vector, whose data() may be
/// null, which memcpy must not be passed even for zero bytes).
void append_floats(std::vector<std::uint8_t>& out, const std::vector<float>& v) {
  if (v.empty()) return;
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(float));
  std::memcpy(out.data() + at, v.data(), v.size() * sizeof(float));
}

bool send_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n <= 0) return false;  // EOF or error
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const WireRequest& req) {
  std::vector<std::uint8_t> out;
  put(out, static_cast<std::uint8_t>(req.opcode));
  if (req.opcode != Opcode::kInfer) return out;
  put(out, req.deadline_ms);
  put(out, req.mac_budget);
  put(out, req.c);
  put(out, req.h);
  put(out, req.w);
  append_floats(out, req.data);
  return out;
}

bool decode_request(const std::vector<std::uint8_t>& payload,
                    WireRequest& req) {
  std::size_t at = 0;
  std::uint8_t opcode = 0;
  if (!get(payload, at, opcode)) return false;
  req.opcode = static_cast<Opcode>(opcode);
  if (req.opcode == Opcode::kShutdown || req.opcode == Opcode::kStats ||
      req.opcode == Opcode::kStatsProm || req.opcode == Opcode::kTimeline) {
    return at == payload.size();
  }
  if (req.opcode != Opcode::kInfer) return false;
  if (!get(payload, at, req.deadline_ms) || !get(payload, at, req.mac_budget) ||
      !get(payload, at, req.c) || !get(payload, at, req.h) ||
      !get(payload, at, req.w)) {
    return false;
  }
  // Bound every extent by what the payload can hold BEFORE multiplying: an
  // unchecked c*h*w can wrap (c=27905, h=429509837, w=384773 gives 2^62+1,
  // whose byte count wraps to 4), pass the size check and then fail to
  // allocate.
  const std::uint64_t max_numel = (payload.size() - at) / sizeof(float);
  if (req.c == 0 || req.h == 0 || req.w == 0 || req.c > max_numel ||
      req.h > max_numel / req.c ||
      req.w > max_numel / (static_cast<std::uint64_t>(req.c) * req.h)) {
    return false;
  }
  const std::uint64_t numel = static_cast<std::uint64_t>(req.c) * req.h * req.w;
  if (payload.size() - at != numel * sizeof(float)) return false;
  req.data.resize(static_cast<std::size_t>(numel));
  std::memcpy(req.data.data(), payload.data() + at, numel * sizeof(float));
  return true;
}

std::vector<std::uint8_t> encode_reply(const WireReply& reply) {
  std::vector<std::uint8_t> out;
  put(out, reply.exit_subnet);
  put(out, reply.confidence);
  put(out, reply.deadline_missed);
  put(out, reply.macs);
  put(out, reply.first_result_ms);
  put(out, reply.final_ms);
  put(out, static_cast<std::uint32_t>(reply.logits.size()));
  append_floats(out, reply.logits);
  return out;
}

bool decode_reply(const std::vector<std::uint8_t>& payload, WireReply& reply) {
  std::size_t at = 0;
  std::uint32_t num_logits = 0;
  if (!get(payload, at, reply.exit_subnet) ||
      !get(payload, at, reply.confidence) ||
      !get(payload, at, reply.deadline_missed) ||
      !get(payload, at, reply.macs) ||
      !get(payload, at, reply.first_result_ms) ||
      !get(payload, at, reply.final_ms) || !get(payload, at, num_logits)) {
    return false;
  }
  if (payload.size() - at != num_logits * sizeof(float)) return false;
  reply.logits.resize(num_logits);
  // memcpy's pointers must be valid even for zero bytes, and an empty
  // vector's data() may be null.
  if (num_logits != 0) {
    std::memcpy(reply.logits.data(), payload.data() + at,
                num_logits * sizeof(float));
  }
  return true;
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t prefix[sizeof(len)];
  std::memcpy(prefix, &len, sizeof(len));
  if (!send_all(fd, prefix, sizeof(prefix))) return false;
  return payload.empty() || send_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::size_t max_payload) {
  std::uint32_t len = 0;
  std::uint8_t prefix[sizeof(len)];
  if (!recv_all(fd, prefix, sizeof(prefix))) return false;
  std::memcpy(&len, prefix, sizeof(len));
  if (len > max_payload) return false;
  // The buffer grows as the body arrives, so a length prefix the peer does
  // not back with bytes costs at most one chunk, not `len`.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  payload.clear();
  while (payload.size() < len) {
    const std::size_t at = payload.size();
    payload.resize(at + std::min<std::size_t>(kChunk, len - at));
    if (!recv_all(fd, payload.data() + at, payload.size() - at)) return false;
  }
  return true;
}

}  // namespace stepping::serve
