// Serve fault boundary: a throw inside a serve pass — an on_step callback or
// the forward itself — fails exactly that pass's requests through their
// futures, keeps the counters balanced, and leaves the server serving
// bitwise-correct answers. A stream frame that fails mid-forward restarts its
// stream cold, so a half-updated ladder is never reused.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/models.h"
#include "serve/server.h"
#include "tensor/ops.h"

namespace stepping::serve {
namespace {

/// The hand-built 3-subnet network the incremental tests use.
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

/// Add `delta` to a 6x6 patch at (r, c) in every channel.
void perturb_patch(Tensor& x, int r, int c, float delta) {
  for (int k = 0; k < x.dim(1); ++k) {
    float* plane = x.data() + static_cast<std::int64_t>(k) * 32 * 32;
    for (int rr = r; rr < r + 6; ++rr) {
      for (int cc = c; cc < c + 6; ++cc) plane[rr * 32 + cc] += delta;
    }
  }
}

/// Set while a test wants FaultLayer to throw.
std::atomic<bool> g_fault{false};

/// Identity layer appended after the head: while g_fault is set its forward
/// throws, after every real layer of the pass has already run.
class FaultLayer final : public Layer {
 public:
  std::string name() const override { return "fault"; }
  IOSpec wire(const IOSpec& in, Rng&) override { return in; }
  Tensor forward(const Tensor& x, const SubnetContext&) override {
    if (g_fault.load()) throw std::runtime_error("injected fault");
    return x;
  }
  Tensor backward(const Tensor& g, const SubnetContext&) override { return g; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<FaultLayer>();
  }
};

Network faulty_net() {
  Network net = nested_net();
  net.add(std::make_unique<FaultLayer>());
  Rng rng(7);
  net.wire(3, 32, 32, rng);
  return net;
}

ServeConfig robust_config(int max_batch) {
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  cfg.max_batch = max_batch;
  cfg.admit = AdmitPolicy::kOff;
  return cfg;
}

void expect_direct(Network& ref, const Tensor& x, const ServedResult& res) {
  SubnetContext ctx;
  ctx.subnet_id = res.exit_subnet;
  const Tensor direct = ref.forward(x, ctx);
  ASSERT_EQ(res.logits.shape(), direct.shape());
  EXPECT_EQ(0, std::memcmp(res.logits.data(), direct.data(),
                           sizeof(float) *
                               static_cast<std::size_t>(direct.numel())));
}

void expect_balanced(const Server& server) {
  const CounterSnapshot c = server.counters();
  EXPECT_EQ(c.completed + c.failed, c.submitted - c.rejected);
}

TEST(ServeRobust, ThrowingCallbackFailsItsRequestAndServerKeepsServing) {
  Network net = nested_net();
  Network ref = net.clone();
  Server server(net, robust_config(/*max_batch=*/1));

  Request bad;
  bad.input = random_input(1);
  bad.on_step = [](const StepUpdate&) {
    throw std::runtime_error("callback failed");
  };
  std::future<ServedResult> fut = server.submit(std::move(bad));
  try {
    fut.get();
    FAIL() << "the throwing request's future must carry the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "callback failed");
  }

  const Tensor x = random_input(2);
  Request ok;
  ok.input = x;
  expect_direct(ref, x, server.serve(std::move(ok)));

  const CounterSnapshot c = server.counters();
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(server.metrics().counter("serve_failed_total").value(), 1u);
  expect_balanced(server);
  server.shutdown();  // returns: the failed job left the run queue
}

TEST(ServeRobust, ThrowingForwardFailsEveryJobOfThePass) {
  Network net = faulty_net();
  Network ref = net.clone();
  Server server(net, robust_config(/*max_batch=*/4));

  g_fault = true;
  std::vector<std::future<ServedResult>> futs;
  for (int i = 0; i < 6; ++i) {
    Request req;
    req.input = random_input(10 + static_cast<std::uint64_t>(i));
    futs.push_back(server.submit(std::move(req)));
  }
  for (auto& f : futs) EXPECT_THROW(f.get(), std::runtime_error);
  g_fault = false;

  const Tensor x = random_input(20);
  Request ok;
  ok.input = x;
  const ServedResult res = server.serve(std::move(ok));
  EXPECT_EQ(res.exit_subnet, 3);
  expect_direct(ref, x, res);
  EXPECT_EQ(server.counters().failed, 6u);
  expect_balanced(server);
  server.shutdown();
}

TEST(ServeRobust, StreamFrameFaultRestartsTheStreamCold) {
  Network net = faulty_net();
  Network ref = net.clone();
  ServeConfig cfg = robust_config(/*max_batch=*/1);
  cfg.stream = 1;
  Server server(net, cfg);
  const auto send = [&server](const Tensor& x) {
    Request req;
    req.input = x;
    req.stream_id = 1;
    return server.submit(std::move(req));
  };

  const Tensor frame = random_input(30);
  expect_direct(ref, frame, send(frame).get());  // cold build

  // Frame 2 moves patch A: the delta pass rewrites those rows of the cached
  // ladder, then the fault fires before the stream's tiles are updated.
  Tensor second = frame;
  perturb_patch(second, 2, 2, 0.5f);
  g_fault = true;
  EXPECT_THROW(send(second).get(), std::runtime_error);
  g_fault = false;

  // Frame 3 differs from frame 1 only at patch B. Diffed against frame 1's
  // tiles, reusing the ladder would keep frame 2's patch-A rows.
  Tensor third = frame;
  perturb_patch(third, 20, 20, 0.5f);
  expect_direct(ref, third, send(third).get());
  EXPECT_EQ(server.metrics().counter("serve_stream_cold_total").value(), 2u)
      << "the frame after a fault must rebuild cold";
  EXPECT_EQ(server.counters().failed, 1u);
  expect_balanced(server);
  server.shutdown();
}

}  // namespace
}  // namespace stepping::serve
