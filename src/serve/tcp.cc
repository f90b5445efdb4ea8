#include "serve/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace stepping::serve {

namespace {

int make_listener(int port, int& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("serve: bind/listen on 127.0.0.1 failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("serve: getsockname failed");
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

TcpServer::TcpServer(Server& server, int port) : server_(server) {
  listen_fd_ = make_listener(port, port_);
}

TcpServer::~TcpServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpServer::stop() {
  if (stop_.exchange(true)) return;
  // Unblock accept() and any connection blocked in recv().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
}

void TcpServer::run() {
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load()) break;
      continue;  // transient accept failure
    }
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void TcpServer::handle_connection(int fd) {
  std::vector<std::uint8_t> payload;
  WireRequest req;
  while (!stop_.load() && read_frame(fd, payload)) {
    WireReply reply;
    // Decoding and tensor construction sit inside the try too: this is the
    // connection thread's entry, and an exception escaping it would
    // terminate the whole server.
    try {
      if (!decode_request(payload, req)) break;  // malformed: drop connection
      if (req.opcode == Opcode::kShutdown) {
        write_frame(fd, {});  // ack before tearing the listener down
        stop();
        break;
      }
      if (req.opcode == Opcode::kStats || req.opcode == Opcode::kStatsProm ||
          req.opcode == Opcode::kTimeline) {
        const std::string text = req.opcode == Opcode::kStats
                                     ? server_.metrics_json()
                                 : req.opcode == Opcode::kStatsProm
                                     ? server_.metrics_prometheus()
                                     : server_.postmortems_json();
        if (!write_frame(fd, std::vector<std::uint8_t>(text.begin(),
                                                       text.end()))) {
          break;
        }
        continue;
      }
      Request request;
      request.input =
          Tensor({1, static_cast<int>(req.c), static_cast<int>(req.h),
                  static_cast<int>(req.w)},
                 std::move(req.data));
      request.deadline_ms = req.deadline_ms;
      request.mac_budget = req.mac_budget;
      ServedResult res = server_.serve(std::move(request));
      reply.exit_subnet = static_cast<std::uint32_t>(res.exit_subnet);
      reply.confidence = res.confidence;
      reply.deadline_missed = res.deadline_missed ? 1 : 0;
      reply.macs = res.macs;
      reply.first_result_ms = res.first_result_ms;
      reply.final_ms = res.final_ms;
      reply.logits.assign(res.logits.data(),
                          res.logits.data() + res.logits.numel());
    } catch (const std::exception&) {
      // Rejected (bad shape / queue full / allocation failure): reply with
      // exit_subnet == 0.
    }
    if (!write_frame(fd, encode_reply(reply))) break;
  }
  {  // Once closed, the fd's number may name a socket stop() must not touch.
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
  }
  ::close(fd);
}

TcpClient::TcpClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("serve: client socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve: connect to 127.0.0.1:" +
                             std::to_string(port) + " failed");
  }
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool TcpClient::infer(const Tensor& input, double deadline_ms,
                      std::int64_t mac_budget, WireReply& reply) {
  WireRequest req;
  req.opcode = Opcode::kInfer;
  req.deadline_ms = deadline_ms;
  req.mac_budget = mac_budget;
  const int off = input.rank() == 4 ? 1 : 0;
  req.c = static_cast<std::uint32_t>(input.dim(off));
  req.h = static_cast<std::uint32_t>(input.dim(off + 1));
  req.w = static_cast<std::uint32_t>(input.dim(off + 2));
  req.data.assign(input.data(), input.data() + input.numel());
  if (!write_frame(fd_, encode_request(req))) return false;
  std::vector<std::uint8_t> payload;
  if (!read_frame(fd_, payload)) return false;
  return decode_reply(payload, reply);
}

bool TcpClient::shutdown_server() {
  WireRequest req;
  req.opcode = Opcode::kShutdown;
  if (!write_frame(fd_, encode_request(req))) return false;
  std::vector<std::uint8_t> payload;
  return read_frame(fd_, payload) && payload.empty();
}

bool TcpClient::stats(std::string& json_out) {
  WireRequest req;
  req.opcode = Opcode::kStats;
  if (!write_frame(fd_, encode_request(req))) return false;
  std::vector<std::uint8_t> payload;
  if (!read_frame(fd_, payload) || payload.empty()) return false;
  json_out.assign(payload.begin(), payload.end());
  return true;
}

bool TcpClient::stats_prometheus(std::string& text_out) {
  WireRequest req;
  req.opcode = Opcode::kStatsProm;
  if (!write_frame(fd_, encode_request(req))) return false;
  std::vector<std::uint8_t> payload;
  if (!read_frame(fd_, payload) || payload.empty()) return false;
  text_out.assign(payload.begin(), payload.end());
  return true;
}

bool TcpClient::timeline(std::string& json_out) {
  WireRequest req;
  req.opcode = Opcode::kTimeline;
  if (!write_frame(fd_, encode_request(req))) return false;
  std::vector<std::uint8_t> payload;
  if (!read_frame(fd_, payload) || payload.empty()) return false;
  json_out.assign(payload.begin(), payload.end());
  return true;
}

}  // namespace stepping::serve
