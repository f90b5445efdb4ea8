// Serve fault boundary: a throw inside a serve pass — an on_step callback or
// the forward itself — fails exactly that pass's requests through their
// futures, keeps the counters balanced, and leaves the server serving
// bitwise-correct answers. A stream frame that fails mid-forward restarts its
// stream cold, so a half-updated ladder is never reused. A shutdown() that
// arrives while requests are mid-ladder and stream frames are in flight
// resolves every future and joins every worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/models.h"
#include "serve/server.h"
#include "tensor/ops.h"

// ThreadSanitizer suppression, read by the TSan runtime when this binary is
// built with -fsanitize=thread (and unused otherwise). A failed request's
// future holds its exception through std::exception_ptr, whose owner count
// libsupc++ keeps with atomics compiled without TSan instrumentation. When
// a worker's promise is the last owner of the future's state, the worker
// frees an exception the caller has already read and released, and TSan,
// blind to that count's acquire/release, reports the caller's read (of the
// message, or of the vtable for a type with no string) against the free.
// A promise can only let go of the state after it has set the exception,
// so no change on the server's side rules that order out. Only frees
// reached from destroying a served request's future result are suppressed.
extern "C" const char* __tsan_default_suppressions() {
  return "race:std::__future_base::_Result<stepping::serve::ServedResult>::~_Result\n";
}

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

  // A fault in a pass of three frames: the frames of three warm streams
  // queue together behind the only worker, parked in a plain request's
  // final callback, and the fault fires in their batched delta pass. Every
  // frame of the pass fails, and every stream in it rebuilds cold.
  ServeConfig batch_cfg = robust_config(/*max_batch=*/4);
  batch_cfg.stream = 1;
  Server batched(net, batch_cfg);
  const auto send_to = [&batched](const Tensor& x, std::uint64_t stream_id) {
    Request req;
    req.input = x;
    req.stream_id = stream_id;
    return batched.submit(std::move(req));
  };
  Tensor frames[3] = {random_input(40), random_input(41), random_input(42)};
  for (std::uint64_t s = 0; s < 3; ++s) {
    expect_direct(ref, frames[s], send_to(frames[s], s + 1).get());
  }
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false, released = false;
  Request plain;
  plain.input = random_input(43);
  plain.on_step = [&](const StepUpdate& u) {
    if (!u.final) return;
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  std::future<ServedResult> plain_fut = batched.submit(std::move(plain));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] { return parked; }))
        << "the worker never reached the callback";
  }
  std::vector<std::future<ServedResult>> faulty;
  for (std::uint64_t s = 0; s < 3; ++s) {
    perturb_patch(frames[s], 4 + 6 * static_cast<int>(s), 3, 0.5f);
    faulty.push_back(send_to(frames[s], s + 1));
  }
  g_fault = true;
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  EXPECT_EQ(plain_fut.get().exit_subnet, 3);
  for (auto& f : faulty) EXPECT_THROW(f.get(), std::runtime_error);
  g_fault = false;
  EXPECT_EQ(batched.counters().failed, 3u);

  const std::uint64_t cold_before =
      batched.metrics().counter("serve_stream_cold_total").value();
  for (std::uint64_t s = 0; s < 3; ++s) {
    perturb_patch(frames[s], 20, 4 + 6 * static_cast<int>(s), 0.5f);
    expect_direct(ref, frames[s], send_to(frames[s], s + 1).get());
  }
  EXPECT_EQ(batched.metrics().counter("serve_stream_cold_total").value(),
            cold_before + 3)
      << "every stream of the failed pass must rebuild cold";
  expect_balanced(batched);
  batched.shutdown();
}

TEST(ServeRobust, ShutdownUnderLoadResolvesEveryFutureAndJoinsTheWorkers) {
  // One worker is parked inside the level-1 callback of a request that
  // climbs to level 3, the other inside the callback of a stream frame whose
  // delta pass has run. More requests and frames queue behind them, and
  // submits keep arriving while shutdown() closes the queue.
  Network net = nested_net();
  ServeConfig cfg = robust_config(/*max_batch=*/4);
  cfg.num_workers = 2;
  cfg.stream = 1;
  auto server = std::make_unique<Server>(net, cfg);

  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool released = false;
  const auto park = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++parked;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  const auto wait_parked = [&](int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(60),
                       [&] { return parked >= n; });
  };
  // Every callback holds a copy: once the server is gone, nothing may.
  const auto token = std::make_shared<int>(0);
  std::vector<std::future<ServedResult>> futs;
  enum class Gate { kNone, kLevelOne, kFinal };
  // Returns whether the future resolved at once (the submit was refused).
  const auto send = [&](std::uint64_t seed, std::uint64_t stream_id,
                        Gate gate) {
    Request req;
    req.input = random_input(seed);
    req.stream_id = stream_id;
    req.on_step = [&park, gate, token](const StepUpdate& u) {
      if ((gate == Gate::kLevelOne && u.subnet == 1 && !u.final) ||
          (gate == Gate::kFinal && u.final)) {
        park();
      }
    };
    futs.push_back(server->submit(std::move(req)));
    return futs.back().wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };

  send(100, 0, Gate::kLevelOne);
  ASSERT_TRUE(wait_parked(1)) << "no worker reached the ladder callback";
  send(101, 5, Gate::kFinal);
  ASSERT_TRUE(wait_parked(2)) << "no worker reached the frame callback";
  for (std::uint64_t i = 0; i < 12; ++i) {
    send(200 + i, i % 3 == 0 ? 5 + i % 2 : 0, Gate::kNone);
  }

  std::promise<void> stopped;
  std::future<void> stopped_f = stopped.get_future();
  std::thread stopper([&] {
    server->shutdown();
    stopped.set_value();
  });
  // Far fewer jobs than queue_capacity are queued, so the first submit that
  // resolves at once found the queue closed.
  bool refused = false;
  for (std::uint64_t i = 0; i < 60000 && !refused; ++i) {
    refused = send(300 + i, i % 2 == 0 ? 6 : 0, Gate::kNone);
    if (!refused) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(refused) << "shutdown() never closed the queue";
  EXPECT_EQ(stopped_f.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "shutdown() returned while workers were parked";
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  ASSERT_EQ(stopped_f.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "shutdown() did not return after the workers were released";
  stopper.join();

  std::uint64_t values = 0, errors = 0;
  for (std::future<ServedResult>& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    try {
      EXPECT_EQ(f.get().logits.numel(), 10);
      ++values;
    } catch (const std::runtime_error&) {
      ++errors;
    }
  }
  const CounterSnapshot c = server->counters();
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(values, c.completed);
  EXPECT_EQ(errors, c.rejected);
  EXPECT_GE(values, 14u) << "requests queued before the close must drain";
  expect_balanced(*server);

  server.reset();
  EXPECT_EQ(token.use_count(), 1) << "a job outlived the server";
}

}  // namespace
}  // namespace stepping::serve
