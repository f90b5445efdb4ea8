// Loopback TCP front end for serve::Server (ISSUE 2).
//
// One accept loop, one thread per connection; each connection is a serial
// request/reply stream of protocol.h frames (concurrency comes from
// multiple connections — the load generator and the smoke test open
// several). The kShutdown opcode stops the listener; the serve::Server
// itself is owned by the caller, which shuts it down and dumps counters.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"

namespace stepping::serve {

class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()). Throws
  /// std::runtime_error on socket/bind/listen failure.
  TcpServer(Server& server, int port);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  int port() const { return port_; }

  /// Blocking accept loop; returns after stop() (or a kShutdown frame),
  /// once every connection thread has been joined.
  void run();

  /// Request the accept loop to exit; safe from any thread.
  void stop();

 private:
  void handle_connection(int fd);

  Server& server_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;  ///< open connections; a handler erases its own
};

/// Minimal blocking client (tests, bench_serve, examples).
class TcpClient {
 public:
  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit TcpClient(int port);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// One infer round trip. `input` is (C, H, W) or (1, C, H, W).
  bool infer(const Tensor& input, double deadline_ms, std::int64_t mac_budget,
             WireReply& reply);

  /// Send kShutdown and wait for the empty ack frame.
  bool shutdown_server();

  /// Poll the server's live metrics: sends kStats, fills `json_out` with
  /// the registry's JSON snapshot.
  bool stats(std::string& json_out);

  /// Same poll in Prometheus text exposition (kStatsProm): fills
  /// `text_out` with serve::Server::metrics_prometheus().
  bool stats_prometheus(std::string& text_out);

  /// Fetch the flight recorder's postmortem dump (kTimeline): deadline
  /// misses and worst stragglers with their full causal timelines, as
  /// serve::Server::postmortems_json() bytes.
  bool timeline(std::string& json_out);

 private:
  int fd_ = -1;
};

}  // namespace stepping::serve
