// Loopback TCP front end tests (ISSUE 2): wire-format round trips and a
// multi-client smoke test against an in-process server — replies must carry
// logits bitwise-identical to a direct forward of the exit subnet.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "models/models.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "tensor/ops.h"

namespace stepping::serve {
namespace {

Network nested_net() {
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15};
  Network net = build_lenet3c1l(mc);
  for (MaskedLayer* m : net.body_layers()) {
    for (int u = 0; u < m->num_units(); ++u) {
      m->set_unit_subnet(u, 1 + (u % 3));
    }
  }
  return net;
}

Tensor random_input(std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({1, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  return x;
}

TEST(ServeProtocol, RequestRoundTrip) {
  WireRequest req;
  req.opcode = Opcode::kInfer;
  req.deadline_ms = 12.5;
  req.mac_budget = 123456789;
  req.c = 3;
  req.h = 4;
  req.w = 5;
  req.data.resize(60);
  for (std::size_t i = 0; i < req.data.size(); ++i) {
    req.data[i] = static_cast<float>(i) * 0.25f;
  }
  WireRequest out;
  ASSERT_TRUE(decode_request(encode_request(req), out));
  EXPECT_EQ(out.opcode, Opcode::kInfer);
  EXPECT_EQ(out.deadline_ms, 12.5);
  EXPECT_EQ(out.mac_budget, 123456789);
  EXPECT_EQ(out.c, 3u);
  EXPECT_EQ(out.h, 4u);
  EXPECT_EQ(out.w, 5u);
  EXPECT_EQ(out.data, req.data);
}

TEST(ServeProtocol, ReplyRoundTrip) {
  WireReply reply;
  reply.exit_subnet = 3;
  reply.confidence = 0.875;
  reply.deadline_missed = 1;
  reply.macs = 987654321;
  reply.first_result_ms = 1.5;
  reply.final_ms = 4.25;
  reply.logits = {0.5f, -1.25f, 3.0f};
  WireReply out;
  ASSERT_TRUE(decode_reply(encode_reply(reply), out));
  EXPECT_EQ(out.exit_subnet, 3u);
  EXPECT_EQ(out.confidence, 0.875);
  EXPECT_EQ(out.deadline_missed, 1);
  EXPECT_EQ(out.macs, 987654321);
  EXPECT_EQ(out.first_result_ms, 1.5);
  EXPECT_EQ(out.final_ms, 4.25);
  EXPECT_EQ(out.logits, reply.logits);
}

TEST(ServeProtocol, DecodeRejectsTruncatedPayloads) {
  WireRequest req;
  req.opcode = Opcode::kInfer;
  req.c = 2;
  req.h = 2;
  req.w = 2;
  req.data.resize(8, 1.0f);
  std::vector<std::uint8_t> bytes = encode_request(req);
  bytes.resize(bytes.size() - 5);  // truncate mid-data
  WireRequest out;
  EXPECT_FALSE(decode_request(bytes, out));
  WireReply reply_out;
  EXPECT_FALSE(decode_reply({0x01, 0x02}, reply_out));
}

/// A kInfer payload declaring extents (c, h, w) followed by `floats` data
/// values, whatever the extents claim.
std::vector<std::uint8_t> infer_frame(std::uint32_t c, std::uint32_t h,
                                      std::uint32_t w, std::size_t floats) {
  WireRequest req;
  req.opcode = Opcode::kInfer;
  req.c = c;
  req.h = h;
  req.w = w;
  req.data.assign(floats, 0.5f);
  return encode_request(req);
}

/// 27905 * 429509837 * 384773 = 2^62 + 1, so numel * 4 wraps to 4 bytes:
/// exactly the one float this 33-byte frame carries.
std::vector<std::uint8_t> wrapping_frame() {
  return infer_frame(27905u, 429509837u, 384773u, 1);
}

TEST(ServeProtocol, DecodeRejectsFrameWhoseByteCountWraps) {
  const std::vector<std::uint8_t> frame = wrapping_frame();
  ASSERT_EQ(frame.size(), 33u);
  WireRequest out;
  EXPECT_FALSE(decode_request(frame, out));
  EXPECT_TRUE(out.data.empty());
}

TEST(ServeProtocol, DecodeBoundsEveryExtentBeforeMultiplying) {
  struct Case {
    std::uint32_t c, h, w;
    std::size_t floats;
    bool ok;
  };
  const std::uint32_t big = 1u << 31;
  const Case cases[] = {
      {3, 4, 1, 12, true},   {12, 1, 1, 12, true},  {1, 12, 1, 12, true},
      {1, 1, 12, 12, true},  {2, 2, 3, 12, true},   {13, 1, 1, 12, false},
      {1, 13, 1, 12, false}, {1, 1, 13, 12, false}, {3, 4, 2, 12, false},
      {3, 4, 1, 13, false},  {0, 4, 3, 12, false},  {4, 0, 3, 12, false},
      {4, 3, 0, 12, false},
      // c*h*w = 2^62 and 2^63: numel * 4 wraps to 0 bytes.
      {big, big, 1, 0, false}, {big, big, 2, 0, false},
      // Each extent alone exceeds what 4 floats can hold.
      {0xffffffffu, 1, 1, 4, false}, {1, 0xffffffffu, 1, 4, false},
      {1, 1, 0xffffffffu, 4, false},
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 4, false},
  };
  for (const Case& k : cases) {
    WireRequest out;
    EXPECT_EQ(decode_request(infer_frame(k.c, k.h, k.w, k.floats), out), k.ok)
        << k.c << "x" << k.h << "x" << k.w << " with " << k.floats << " floats";
    if (k.ok) {
      EXPECT_EQ(out.data.size(), k.floats);
    }
  }
}

TEST(ServeTcp, MultiClientSmokeWithBitwiseParity) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  Server server(net, cfg);
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);
  std::thread loop([&] { tcp.run(); });

  constexpr int kClients = 3;
  constexpr int kPerClient = 4;
  // One reference replica per client: Network::forward keeps scratch state.
  std::vector<Network> refs;
  for (int t = 0; t < kClients; ++t) refs.push_back(net.clone());
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        TcpClient client(tcp.port());
        for (int i = 0; i < kPerClient; ++i) {
          const Tensor x = random_input(
              static_cast<std::uint64_t>(1000 + t * kPerClient + i));
          WireReply reply;
          if (!client.infer(x, /*deadline_ms=*/0.0, /*mac_budget=*/0,
                            reply) ||
              reply.exit_subnet == 0) {
            ++failures;
            continue;
          }
          SubnetContext ctx;
          ctx.subnet_id = static_cast<int>(reply.exit_subnet);
          const Tensor direct =
              refs[static_cast<std::size_t>(t)].forward(x, ctx);
          if (static_cast<std::int64_t>(reply.logits.size()) !=
                  direct.numel() ||
              std::memcmp(reply.logits.data(), direct.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              direct.numel())) != 0) {
            ++failures;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  // Shutdown opcode: acked with an empty frame, then the accept loop exits.
  {
    TcpClient client(tcp.port());
    EXPECT_TRUE(client.shutdown_server());
  }
  loop.join();
  server.shutdown();
  const CounterSnapshot snap = server.counters();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(snap.rejected, 0u);
}

TEST(ServeTcp, StatsOpcodeReturnsInProcessMetricsJson) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  Server server(net, cfg);
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);
  std::thread loop([&] { tcp.run(); });

  {
    TcpClient client(tcp.port());
    // Stats on a fresh server: valid JSON with zeroed serve counters.
    std::string idle_json;
    ASSERT_TRUE(client.stats(idle_json));
    EXPECT_EQ(idle_json, server.metrics_json());
    EXPECT_NE(idle_json.find("\"serve_completed_total\":0"),
              std::string::npos);

    // Run a few inferences, then verify the wire snapshot matches the
    // in-process registry once the server is quiescent again.
    for (int i = 0; i < 3; ++i) {
      WireReply reply;
      ASSERT_TRUE(client.infer(random_input(static_cast<std::uint64_t>(i)),
                               /*deadline_ms=*/0.0, /*mac_budget=*/0, reply));
      EXPECT_GT(reply.exit_subnet, 0u);
    }
    std::string busy_json;
    ASSERT_TRUE(client.stats(busy_json));
    // Exposition is deterministic (ordered names, fixed float formatting),
    // so equal state must serialize to byte-equal text.
    EXPECT_EQ(busy_json, server.metrics_json());
    EXPECT_NE(busy_json.find("\"serve_completed_total\":3"),
              std::string::npos);
    EXPECT_NE(busy_json.find("\"serve_final_ms\""), std::string::npos);
  }

  {
    TcpClient client(tcp.port());
    EXPECT_TRUE(client.shutdown_server());
  }
  loop.join();
  server.shutdown();
}

TEST(ServeTcp, StatsPromOpcodeReturnsPrometheusExposition) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  Server server(net, cfg);
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);
  std::thread loop([&] { tcp.run(); });

  {
    TcpClient client(tcp.port());
    {
      WireReply reply;
      ASSERT_TRUE(client.infer(random_input(4), /*deadline_ms=*/0.0,
                               /*mac_budget=*/0, reply));
    }
    // The kStatsProm opcode answers with the text exposition — byte-equal
    // to the in-process rendering once the server is quiescent.
    std::string text;
    ASSERT_TRUE(client.stats_prometheus(text));
    EXPECT_EQ(text, server.metrics_prometheus());
    EXPECT_NE(text.find("# TYPE serve_completed_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("serve_completed_total 1"), std::string::npos);
    // The two stats opcodes stay independently routable on one connection.
    std::string json;
    ASSERT_TRUE(client.stats(json));
    EXPECT_EQ(json, server.metrics_json());
  }

  {
    TcpClient client(tcp.port());
    EXPECT_TRUE(client.shutdown_server());
  }
  loop.join();
  server.shutdown();
}

TEST(ServeTcp, TimelineOpcodeReturnsPostmortemBytes) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  cfg.flight.ring = 32;
  cfg.flight.retain_misses = 8;
  cfg.flight.retain_stragglers = 4;
  Server server(net, cfg);
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);
  std::thread loop([&] { tcp.run(); });

  {
    TcpClient client(tcp.port());
    // A fresh server: valid dump, no postmortems yet.
    std::string idle;
    ASSERT_TRUE(client.timeline(idle));
    EXPECT_EQ(idle, server.postmortems_json());
    EXPECT_NE(idle.find("\"postmortems\":[]"), std::string::npos);

    // Force a deterministic deadline miss, then fetch its postmortem.
    WireReply reply;
    ASSERT_TRUE(client.infer(random_input(9), /*deadline_ms=*/1e-3,
                             /*mac_budget=*/0, reply));
    EXPECT_EQ(reply.deadline_missed, 1);
    std::string busy;
    ASSERT_TRUE(client.timeline(busy));
    // The kTimeline frame carries exactly the in-process rendering's bytes.
    EXPECT_EQ(busy, server.postmortems_json());
    EXPECT_NE(busy.find("\"kind\":\"deadline_miss\""), std::string::npos);
    EXPECT_NE(busy.find("\"event\":\"final_publish\""), std::string::npos);
    // Timeline and stats opcodes stay independently routable.
    std::string json;
    ASSERT_TRUE(client.stats(json));
    EXPECT_EQ(json, server.metrics_json());
  }

  {
    TcpClient client(tcp.port());
    EXPECT_TRUE(client.shutdown_server());
  }
  loop.join();
  server.shutdown();
}

// Bug pin: the wrapping frame used to throw from vector::resize on the
// connection thread, outside any try, which terminated the server process.
// Now the frame is rejected, that connection dropped, and the server keeps
// serving other clients.
TEST(ServeTcp, HostileFrameDropsConnectionServerKeepsServing) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  Server server(net, cfg);
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);
  std::thread loop([&] { tcp.run(); });

  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(tcp.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_TRUE(write_frame(fd, wrapping_frame()));
    std::vector<std::uint8_t> reply;
    EXPECT_FALSE(read_frame(fd, reply));  // connection dropped, no reply
    ::close(fd);
  }
  {
    TcpClient client(tcp.port());
    WireReply reply;
    ASSERT_TRUE(client.infer(random_input(3), /*deadline_ms=*/0.0,
                             /*mac_budget=*/0, reply));
    EXPECT_GT(reply.exit_subnet, 0u);
    EXPECT_TRUE(client.shutdown_server());
  }
  loop.join();
  server.shutdown();
}

TEST(ServeTcp, StopUnblocksRunWithoutClients) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  Server server(net, cfg);
  TcpServer tcp(server, 0);
  std::thread loop([&] { tcp.run(); });
  // Give the loop a moment to block in accept(), then stop from outside.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tcp.stop();
  loop.join();  // must not hang
}

// Bug pin: a connection's handler closed its fd but left it in the set that
// stop() shuts down, so stop() shut down whatever socket had since been
// given that number.
TEST(ServeTcp, StopLeavesASocketThatReusedAClosedConnectionsFdAlone) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  Server server(net, cfg);
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);
  std::thread loop([&] { tcp.run(); });

  // A client connects and is served; the server's end of the connection is
  // the socket whose peer is the client's port.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(tcp.port()));
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(write_frame(client, infer_frame(3, 32, 32, 3 * 32 * 32)));
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(read_frame(client, reply));
  sockaddr_in local{};
  socklen_t len = sizeof(local);
  ASSERT_EQ(::getsockname(client, reinterpret_cast<sockaddr*>(&local), &len), 0);
  int server_end = -1;
  for (int fd = 0; fd < 1024 && server_end < 0; ++fd) {
    sockaddr_in peer{};
    socklen_t plen = sizeof(peer);
    if (fd != client &&
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &plen) == 0 &&
        peer.sin_family == AF_INET && peer.sin_port == local.sin_port) {
      server_end = fd;
    }
  }
  ASSERT_GE(server_end, 0);

  // The client disconnects, and the handler closes its end.
  ::close(client);
  for (int i = 0; i < 60000 && ::fcntl(server_end, F_GETFD) != -1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::fcntl(server_end, F_GETFD), -1) << "the handler kept its fd";

  // A socketpair made now takes that fd number (the lowest free ones go
  // first); any pair before it is kept open so the search moves on.
  std::vector<int> fds;
  int pair[2] = {-1, -1};
  for (int i = 0; i < 64 && pair[0] < 0; ++i) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    fds.push_back(sv[0]);
    fds.push_back(sv[1]);
    if (sv[0] == server_end || sv[1] == server_end) {
      pair[0] = sv[0];
      pair[1] = sv[1];
    }
  }
  ASSERT_GE(pair[0], 0) << "no socketpair reused fd " << server_end;

  tcp.stop();
  loop.join();
  // Both ends of the pair still pass a byte each way.
  for (const int from : {0, 1}) {
    const char out = static_cast<char>('a' + from);
    char in = 0;
    EXPECT_EQ(::send(pair[from], &out, 1, MSG_NOSIGNAL), 1) << "end " << from;
    EXPECT_EQ(::recv(pair[1 - from], &in, 1, MSG_DONTWAIT), 1) << "end " << from;
    EXPECT_EQ(in, out);
  }
  for (const int fd : fds) ::close(fd);
  server.shutdown();
}

}  // namespace
}  // namespace stepping::serve
