// Anytime-serving subsystem tests (ISSUE 2): deterministic-clock planner
// decisions and the end-to-end property that served logits are
// bitwise-identical to a direct Network::forward of the exit subnet —
// batching, stepping and scheduling must change *when* work happens, never
// the answer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/latency.h"
#include "core/macs.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "serve/planner.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// A synthetic cost table: full = 100/300/600/1000, head = 10 at every
/// level. On a 1 MMAC/ms device with 0.5 ms overhead the ladder steps cost
/// 0.6 / 0.71 / 0.81 / 0.91 ms (per image).
LevelCosts synthetic_costs() {
  LevelCosts c;
  c.full = {100'000, 300'000, 600'000, 1'000'000};
  c.body = {90'000, 290'000, 590'000, 990'000};
  return c;
}

DeviceModel synthetic_device() {
  DeviceModel dev;
  dev.name = "synthetic";
  dev.macs_per_second = 1e8;  // 0.1 MMAC/ms
  dev.fixed_overhead_ms = 0.5;
  return dev;
}

// ---------------------------------------------------------------------------
// Planner: pure functions of (remaining time, remaining budget) — every
// decision below is driven by a synthetic "clock" value, no timers involved.
// ---------------------------------------------------------------------------

TEST(ServePlanner, LevelCostsMatchAnalyticMacCounts) {
  Network net = nested_net();
  const LevelCosts costs = measure_level_costs(net, 3);
  ASSERT_EQ(costs.max_level(), 3);
  for (int l = 1; l <= 3; ++l) {
    EXPECT_EQ(costs.full[static_cast<std::size_t>(l - 1)], subnet_macs(net, l));
    EXPECT_LT(costs.body[static_cast<std::size_t>(l - 1)],
              costs.full[static_cast<std::size_t>(l - 1)]);
  }
  // Reuse identity: stepping the whole ladder costs full(L) plus the head
  // recomputes of the intermediate levels — strictly less than re-running
  // every subnet from scratch.
  const std::int64_t ladder = costs.stepped_macs_through(3);
  const std::int64_t from_scratch =
      std::accumulate(costs.full.begin(), costs.full.end(), std::int64_t{0});
  EXPECT_LT(ladder, from_scratch);
  EXPECT_GE(ladder, costs.full[2]);
}

TEST(ServePlanner, StepMacsFollowsReuseIdentity) {
  const LevelCosts c = synthetic_costs();
  for (int to = 1; to <= 4; ++to) {
    EXPECT_EQ(c.step_macs(0, to), c.full[static_cast<std::size_t>(to - 1)]);
    for (int from = 1; from < to; ++from) {
      EXPECT_EQ(c.step_macs(from, to),
                c.full[static_cast<std::size_t>(to - 1)] -
                    c.body[static_cast<std::size_t>(from - 1)]);
    }
  }
  EXPECT_EQ(c.stepped_macs_through(1), c.full[0]);
  EXPECT_EQ(c.stepped_macs_through(2), c.full[0] + c.step_macs(1, 2));
}

TEST(ServePlanner, TargetLevelIsMonotonicInRemainingTime) {
  const Planner p(synthetic_costs(), synthetic_device());
  int prev = 0;
  for (const double remaining : {0.0, 0.5, 1.5, 3.0, 6.0, 10.0, 1e9}) {
    const int target = p.target_level(remaining);
    EXPECT_GE(target, prev) << "more slack must never lower the target";
    prev = target;
  }
  EXPECT_EQ(p.target_level(kInf), 4);
  EXPECT_EQ(p.target_level(-1.0), 0);   // hopeless: caller still runs level 1
  EXPECT_EQ(p.target_level(0.0), 0);
}

TEST(ServePlanner, TargetLevelStepsDownUnderLoad) {
  // The server feeds the planner `deadline - now`; queueing shrinks that
  // remainder, so the same request plans a smaller subnet when it waited.
  const Planner p(synthetic_costs(), synthetic_device());
  const double deadline = p.ladder_ms(4) + 0.01;
  const int fresh = p.target_level(deadline);
  EXPECT_EQ(fresh, 4);
  const int after_wait = p.target_level(deadline - p.ladder_ms(2));
  EXPECT_LT(after_wait, fresh);
  EXPECT_GE(after_wait, 1);
}

TEST(ServePlanner, TargetLevelAccountsForBatchSize) {
  const Planner p(synthetic_costs(), synthetic_device());
  const double remaining = p.ladder_ms(4, /*batch=*/1) + 0.01;
  EXPECT_EQ(p.target_level(remaining, 1), 4);
  // A batch multiplies the MAC term; the same slack plans fewer levels.
  EXPECT_LT(p.target_level(remaining, 8), 4);
}

TEST(ServePlanner, StepFitsBudgetExhaustion) {
  const LevelCosts c = synthetic_costs();
  const Planner p(c, synthetic_device());
  // Unlimited budget, unlimited time: everything fits.
  EXPECT_TRUE(p.step_fits(1, 2, kInf, -1));
  // Budget one MAC short of the step: exhausted.
  EXPECT_FALSE(p.step_fits(1, 2, kInf, c.step_macs(1, 2) - 1));
  EXPECT_TRUE(p.step_fits(1, 2, kInf, c.step_macs(1, 2)));
  // Zero budget blocks even the cheapest step.
  EXPECT_FALSE(p.step_fits(3, 4, kInf, 0));
  // Deadline side: the step's wall-clock must fit the remaining slack.
  EXPECT_FALSE(p.step_fits(1, 2, 0.0, -1));
  EXPECT_TRUE(p.step_fits(1, 2, p.step_ms(1, 2) + 0.01, -1));
  EXPECT_FALSE(p.step_fits(1, 2, p.step_ms(1, 2, 4) - 0.01, -1, /*batch=*/4));
}

// ---------------------------------------------------------------------------
// Server: end-to-end parity and scheduling behavior.
// ---------------------------------------------------------------------------

ServeConfig base_config(int workers = 1, bool reuse = true) {
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = workers;
  cfg.max_batch = 4;
  cfg.reuse = reuse;
  cfg.device = synthetic_device();  // planning only; no deadline = no effect
  return cfg;
}

/// Budget that forces a request to exit exactly at `level`: it covers the
/// ladder through `level` but not the next step. In no-reuse mode every
/// level pays full cost, so the ladder sum differs.
std::int64_t budget_for_exit(const Planner& p, int level, bool reuse) {
  if (reuse) return p.costs().stepped_macs_through(level);
  std::int64_t sum = 0;
  for (int l = 1; l <= level; ++l) {
    sum += p.costs().full[static_cast<std::size_t>(l - 1)];
  }
  return sum;
}

TEST(ServeServer, ServedLogitsBitwiseEqualDirectForwardAtEveryExitLevel) {
  Network net = nested_net();
  for (const bool reuse : {true, false}) {
    Server server(net, base_config(/*workers=*/1, reuse));
    for (int level = 1; level <= 3; ++level) {
      const Tensor x = random_input(100 + static_cast<std::uint64_t>(level));
      Request req;
      req.input = x;
      req.mac_budget = budget_for_exit(server.planner(), level, reuse);
      const ServedResult res = server.serve(std::move(req));
      ASSERT_EQ(res.exit_subnet, level) << "reuse=" << reuse;

      SubnetContext ctx;
      ctx.subnet_id = level;
      const Tensor direct = net.forward(x, ctx);
      ASSERT_EQ(res.logits.shape(), direct.shape());
      EXPECT_EQ(0, std::memcmp(res.logits.data(), direct.data(),
                               sizeof(float) *
                                   static_cast<std::size_t>(direct.numel())))
          << "serving must not change the answer (reuse=" << reuse
          << ", level=" << level << ")";
    }
  }
}

TEST(ServeServer, ReuseAndBaselineAgreeBitwiseAtEqualExitLevel) {
  Network net = nested_net();
  const Tensor x = random_input(7);
  Tensor logits[2];
  std::int64_t macs[2] = {0, 0};
  for (const bool reuse : {true, false}) {
    Server server(net, base_config(1, reuse));
    Request req;
    req.input = x;
    const ServedResult res = server.serve(std::move(req));
    EXPECT_EQ(res.exit_subnet, 3);
    logits[reuse ? 0 : 1] = res.logits;
    macs[reuse ? 0 : 1] = res.macs;
  }
  ASSERT_EQ(logits[0].shape(), logits[1].shape());
  EXPECT_EQ(0, std::memcmp(logits[0].data(), logits[1].data(),
                           sizeof(float) *
                               static_cast<std::size_t>(logits[0].numel())));
  EXPECT_LT(macs[0], macs[1])
      << "identical answers, but reuse must attribute fewer MACs";
}

TEST(ServeServer, PreliminaryResultPrecedesRefinements) {
  Network net = nested_net();
  Server server(net, base_config());
  Request req;
  req.input = random_input(8);
  std::vector<StepUpdate> seen;
  std::mutex seen_mutex;
  req.on_step = [&](const StepUpdate& s) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    seen.push_back(s);
  };
  const ServedResult res = server.serve(std::move(req));
  ASSERT_EQ(res.exit_subnet, 3);
  ASSERT_EQ(seen.size(), 3u) << "one update per level, preliminary first";
  EXPECT_EQ(seen.front().subnet, 1);
  EXPECT_FALSE(seen.front().final);
  EXPECT_TRUE(seen.back().final);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].subnet, seen[i - 1].subnet + 1);
    EXPECT_GE(seen[i].at_ms, seen[i - 1].at_ms);
    EXPECT_GT(seen[i].macs, seen[i - 1].macs);
  }
  EXPECT_EQ(res.steps.size(), 3u);
  EXPECT_LE(res.first_result_ms, res.final_ms);
}

TEST(ServeServer, BudgetExhaustionExitsAtLevelOne) {
  Network net = nested_net();
  Server server(net, base_config());
  Request req;
  req.input = random_input(9);
  req.mac_budget = 1;  // absurdly small — still gets the anytime answer
  const ServedResult res = server.serve(std::move(req));
  EXPECT_EQ(res.exit_subnet, 1);
  EXPECT_EQ(res.steps.size(), 1u);
}

TEST(ServeServer, HopelessDeadlineStillAnswersAndCountsMiss) {
  Network net = nested_net();
  ServeConfig cfg = base_config();
  // A real (calibrated-scale) device model so the planner's level-1 estimate
  // genuinely exceeds the microsecond deadline below.
  cfg.device = synthetic_device();
  Server server(net, cfg);
  Request req;
  req.input = random_input(10);
  req.deadline_ms = 1e-4;
  const ServedResult res = server.serve(std::move(req));
  EXPECT_EQ(res.exit_subnet, 1) << "anytime: always answer something";
  EXPECT_TRUE(res.deadline_missed);
  EXPECT_EQ(server.counters().deadline_misses, 1u);
}

TEST(ServeServer, ConfidenceGateStopsRefinement) {
  Network net = nested_net();
  ServeConfig cfg = base_config();
  cfg.confidence_threshold = 1e-9;  // any probability clears it
  Server server(net, cfg);
  Request req;
  req.input = random_input(11);
  const ServedResult res = server.serve(std::move(req));
  EXPECT_EQ(res.exit_subnet, 1);
  EXPECT_GT(res.confidence, 0.0);
}

TEST(ServeServer, RejectsWrongShapeAndCountsIt) {
  Network net = nested_net();
  Server server(net, base_config());
  Request req;
  req.input = Tensor({1, 3, 8, 8});  // wrong spatial size
  auto fut = server.submit(std::move(req));
  EXPECT_THROW(fut.get(), std::invalid_argument);
  EXPECT_EQ(server.counters().rejected, 1u);
  EXPECT_EQ(server.counters().completed, 0u);
}

TEST(ServeServer, SubmitAfterShutdownFailsTheFuture) {
  Network net = nested_net();
  Server server(net, base_config());
  server.shutdown();
  Request req;
  req.input = random_input(12);
  auto fut = server.submit(std::move(req));
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ServeServer, MultiWorkerParityUnderConcurrentLoad) {
  Network net = nested_net();
  ServeConfig cfg = base_config(/*workers=*/3);
  Server server(net, cfg);
  const Planner& planner = server.planner();

  constexpr int kRequests = 24;
  std::vector<Tensor> inputs;
  std::vector<int> want_level(kRequests);
  std::vector<std::future<ServedResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_input(200 + static_cast<std::uint64_t>(i)));
    want_level[static_cast<std::size_t>(i)] = 1 + (i % 3);
    Request req;
    req.input = inputs[static_cast<std::size_t>(i)];
    req.mac_budget = budget_for_exit(
        planner, want_level[static_cast<std::size_t>(i)], /*reuse=*/true);
    futures.push_back(server.submit(std::move(req)));
  }

  Network ref = net.clone();  // futures are drained serially below
  for (int i = 0; i < kRequests; ++i) {
    const ServedResult res = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(res.exit_subnet, want_level[static_cast<std::size_t>(i)]);
    SubnetContext ctx;
    ctx.subnet_id = res.exit_subnet;
    const Tensor direct =
        ref.forward(inputs[static_cast<std::size_t>(i)], ctx);
    ASSERT_EQ(0, std::memcmp(res.logits.data(), direct.data(),
                             sizeof(float) *
                                 static_cast<std::size_t>(direct.numel())))
        << "request " << i;
  }

  const CounterSnapshot snap = server.counters();
  EXPECT_EQ(snap.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(std::accumulate(snap.exits_per_subnet.begin(),
                            snap.exits_per_subnet.end(), std::uint64_t{0}),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(snap.batches, 1u);
  EXPECT_EQ(snap.batched_inputs, static_cast<std::uint64_t>(kRequests));
}

TEST(ServeServer, MetricsSnapshotConsistentUnderConcurrentLoad) {
  Network net = nested_net();
  ServeConfig cfg = base_config(/*workers=*/3);
  Server server(net, cfg);

  constexpr int kRequests = 48;
  std::vector<std::future<ServedResult>> futures;
  std::atomic<bool> done{false};

  // Snapshot continuously while the load runs: the ordered counter updates
  // must keep the invariants true at EVERY observation, not just at rest.
  std::thread snapshotter([&] {
    while (!done.load()) {
      const CounterSnapshot s = server.counters();
      const std::uint64_t exits_sum =
          std::accumulate(s.exits_per_subnet.begin(), s.exits_per_subnet.end(),
                          std::uint64_t{0});
      EXPECT_LE(s.deadline_misses, s.completed);
      EXPECT_LE(exits_sum, s.completed);
      EXPECT_LE(s.completed, s.submitted);
      EXPECT_LE(s.batched_inputs, s.completed);
    }
  });

  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.input = random_input(500 + static_cast<std::uint64_t>(i));
    req.mac_budget =
        budget_for_exit(server.planner(), 1 + (i % 3), /*reuse=*/true);
    futures.push_back(server.submit(std::move(req)));
  }
  for (auto& f : futures) f.get();
  done.store(true);
  snapshotter.join();

  // Quiescent: the inequalities tighten to equalities.
  const CounterSnapshot s = server.counters();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(std::accumulate(s.exits_per_subnet.begin(),
                            s.exits_per_subnet.end(), std::uint64_t{0}),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.batched_inputs, static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(s.deadline_misses, s.completed);
}

TEST(ServeServer, MetricsJsonReflectsRegistryAndReuseSavings) {
  Network net = nested_net();
  Server server(net, base_config());
  Request req;
  req.input = random_input(90);
  server.serve(std::move(req));  // full ladder: levels 2 and 3 reuse level 1

  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"serve_completed_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"serve_exits_subnet_3_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"serve_final_ms\":{\"count\":1"), std::string::npos);
  EXPECT_EQ(json, server.metrics_json()) << "idle snapshots are deterministic";

  // Reuse must have saved MACs vs the no-reuse baseline on levels 2 and 3.
  EXPECT_GT(server.metrics().counter("serve_reuse_macs_saved_total").value(),
            0u);
  const std::string prom = server.metrics_prometheus();
  EXPECT_NE(prom.find("# TYPE serve_completed_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("serve_final_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Accounting: what each request is told it cost adds up to what the server
// counted, over every way a request stops refining.
// ---------------------------------------------------------------------------

TEST(ServeAccounting, PerRequestCountsSumToServerCounters) {
  Network net = nested_net();
  for (const bool reuse : {true, false}) {
    ServeConfig cfg = base_config(/*workers=*/2, reuse);
    cfg.stream = 1;
    cfg.admit = AdmitPolicy::kOff;
    cfg.confidence_threshold = 0.3;
    Server server(net, cfg);
    const Planner& planner = server.planner();
    const double deadlines_ms[] = {0.0, 0.2, 1.5, 50.0};
    // Two camera streams: each round moves a few pixels of the last frame.
    Tensor frames[2] = {random_input(700), random_input(701)};
    std::vector<ServedResult> results;
    for (int round = 0; round < 4; ++round) {
      std::vector<std::future<ServedResult>> futures;
      for (int s = 0; s < 2; ++s) {
        Tensor& frame = frames[s];
        if (round > 0) frame.at(0, s, 3 * round, 2 * round + s) += 1.0f;
        Request req;
        req.input = frame;
        req.stream_id = static_cast<std::uint64_t>(s + 1);
        req.deadline_ms = deadlines_ms[(round + s) % 4];
        futures.push_back(server.submit(std::move(req)));
      }
      for (int i = 0; i < 8; ++i) {
        Request req;
        req.input = random_input(800 + static_cast<std::uint64_t>(round * 8 + i));
        req.deadline_ms = deadlines_ms[i % 4];
        req.mac_budget =
            i % 3 == 0 ? 0 : budget_for_exit(planner, 1 + (i + round) % 3, reuse);
        futures.push_back(server.submit(std::move(req)));
      }
      for (auto& f : futures) results.push_back(f.get());
    }

    std::uint64_t macs = 0;
    std::uint64_t steps = 0;
    for (const ServedResult& r : results) {
      macs += static_cast<std::uint64_t>(r.macs);
      steps += r.steps.size();
    }
    const CounterSnapshot snap = server.counters();
    const std::string tag = reuse ? "reuse" : "no reuse";
    EXPECT_EQ(snap.completed, results.size()) << tag;
    EXPECT_EQ(snap.failed, 0u) << tag;
    EXPECT_EQ(macs, server.metrics().counter("serve_macs_total").value())
        << tag;
    EXPECT_EQ(steps, server.metrics().counter("serve_pass_rows_total").value())
        << tag;
    EXPECT_EQ(snap.pass_rows, steps) << tag;
    EXPECT_EQ(std::accumulate(snap.exits_per_subnet.begin(),
                              snap.exits_per_subnet.end(), std::uint64_t{0}),
              snap.completed)
        << tag;
    EXPECT_EQ(std::accumulate(snap.step_passes_per_subnet.begin(),
                              snap.step_passes_per_subnet.end(),
                              std::uint64_t{0}),
              snap.passes)
        << tag;
    // The mix took both serving routes and stopped at more than one level.
    EXPECT_EQ(server.metrics().counter("serve_stream_frames_total").value(),
              8u)
        << tag;
    int exit_levels = 0;
    for (const std::uint64_t e : snap.exits_per_subnet) exit_levels += e > 0;
    EXPECT_GE(exit_levels, 2) << tag;
  }

  // Three camera streams whose frames queue together behind the only
  // worker, parked in a plain request's level-1 callback, ride one batched
  // frame pass per round; the sums above still hold, and the frames' flight
  // records share a batch of more than one.
  ServeConfig cfg = base_config(/*workers=*/1);
  cfg.stream = 1;
  cfg.admit = AdmitPolicy::kOff;
  cfg.flight.ring = 64;
  cfg.flight.retain_stragglers = 64;
  Server server(net, cfg);
  Tensor frames[3] = {random_input(710), random_input(711), random_input(712)};
  std::vector<ServedResult> results;
  for (int round = 0; round < 3; ++round) {
    std::mutex mu;
    std::condition_variable cv;
    bool parked = false, released = false;
    Request plain;
    plain.input = random_input(900 + static_cast<std::uint64_t>(round));
    plain.on_step = [&](const StepUpdate& u) {
      if (u.subnet != 1) return;
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    };
    std::vector<std::future<ServedResult>> futures;
    futures.push_back(server.submit(std::move(plain)));
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] { return parked; }))
          << "the worker never reached the callback";
    }
    for (int s = 0; s < 3; ++s) {
      Tensor& frame = frames[s];
      if (round > 0) frame.at(0, s, 4 * round + 5 * s, 3 * round + 2 * s) += 1.0f;
      Request req;
      req.input = frame;
      req.stream_id = static_cast<std::uint64_t>(s + 1);
      futures.push_back(server.submit(std::move(req)));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
    for (auto& f : futures) results.push_back(f.get());
  }
  std::uint64_t macs = 0, steps = 0;
  for (const ServedResult& r : results) {
    macs += static_cast<std::uint64_t>(r.macs);
    steps += r.steps.size();
  }
  const CounterSnapshot snap = server.counters();
  EXPECT_EQ(snap.completed, results.size());
  EXPECT_EQ(macs, server.metrics().counter("serve_macs_total").value());
  EXPECT_EQ(snap.pass_rows, steps);
  EXPECT_EQ(std::accumulate(snap.step_passes_per_subnet.begin(),
                            snap.step_passes_per_subnet.end(), std::uint64_t{0}),
            snap.passes);
  EXPECT_EQ(snap.batched_inputs, snap.completed);
  EXPECT_EQ(server.metrics().counter("serve_stream_frames_total").value(), 9u);
  int batched_frames = 0;
  for (const obs::FlightData& d : server.flight().retained_stragglers()) {
    if (d.batch_size > 1) ++batched_frames;
  }
  EXPECT_GE(batched_frames, 1) << "no frames rode one pass together";
  // Each round's three frames took one pass: 3 plain passes + 1 frame pass.
  EXPECT_EQ(snap.passes, 12u);
}

// ---------------------------------------------------------------------------
// One served precision: every ServeConfig::precision serves the fp32 ladder.
// ---------------------------------------------------------------------------

TEST(ServeQuant, EveryPrecisionServesTheFp32Ladder) {
  Network net = nested_net();
  const obs::Counter& packs =
      obs::Registry::global().counter("stepping_quant_packs_total");
  for (const quant::Precision p :
       {quant::Precision::kAuto, quant::Precision::kInt8}) {
    ServeConfig cfg = base_config();
    cfg.precision = p;
    cfg.stream = 1;
    const std::uint64_t packs_before = packs.value();
    Server server(net, cfg);

    // A no-deadline request climbs to max_subnet; a stream frame takes the
    // delta path at the planned level.
    for (const std::uint64_t stream_id : {std::uint64_t{0}, std::uint64_t{7}}) {
      const Tensor x = random_input(60 + stream_id);
      Request req;
      req.input = x;
      req.stream_id = stream_id;
      std::vector<StepUpdate> seen;
      std::mutex seen_mutex;
      req.on_step = [&](const StepUpdate& s) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.push_back(s);
      };
      const ServedResult res = server.serve(std::move(req));
      ASSERT_EQ(res.exit_subnet, 3) << "stream_id=" << stream_id;
      ASSERT_FALSE(seen.empty());
      for (const StepUpdate& s : seen) {
        EXPECT_FALSE(s.int8) << "level " << s.subnet;
      }
      EXPECT_TRUE(seen.back().final);

      SubnetContext ctx;
      ctx.subnet_id = res.exit_subnet;
      const Tensor direct = net.forward(x, ctx);
      ASSERT_EQ(res.logits.shape(), direct.shape());
      EXPECT_EQ(0, std::memcmp(res.logits.data(), direct.data(),
                               sizeof(float) *
                                   static_cast<std::size_t>(direct.numel())))
          << "stream_id=" << stream_id;
    }
    EXPECT_EQ(server.counters().completed, 2u);
    // No int8 operand was packed, at start-up or while serving.
    EXPECT_EQ(packs.value(), packs_before);
  }
}

// A count from STEPPING_SERVE_WORKERS is bounded like STEPPING_THREADS:
// at most kMaxThreads workers (and network replicas), and no wrap through
// the int conversion. Only the resolver runs; no server is built.
TEST(ServeServer, DefaultWorkersBoundsTheEnvCount) {
  const char* saved = std::getenv("STEPPING_SERVE_WORKERS");
  const std::string saved_val = saved ? saved : "";
  const struct {
    const char* value;
    int want;
  } cases[] = {{"0", 1},          {"-5", 1},          {"3", 3},
               {"256", 256},      {"257", 256},       {"100000", 256},
               {"2147483648", 256}, {"4294967297", 256}};
  for (const auto& c : cases) {
    ::setenv("STEPPING_SERVE_WORKERS", c.value, 1);
    EXPECT_EQ(Server::default_workers(), c.want) << c.value;
  }
  ::unsetenv("STEPPING_SERVE_WORKERS");
  EXPECT_EQ(Server::default_workers(), 1);
  if (saved) ::setenv("STEPPING_SERVE_WORKERS", saved_val.c_str(), 1);
}

TEST(ServeServer, ThreeDInputIsNormalized) {
  Network net = nested_net();
  Server server(net, base_config());
  Rng rng(33);
  Tensor x3({3, 32, 32});
  fill_normal(x3, 0.0f, 1.0f, rng);
  Request req;
  req.input = x3;
  const ServedResult res = server.serve(std::move(req));
  EXPECT_EQ(res.exit_subnet, 3);
  EXPECT_EQ(res.logits.dim(0), 1);
  EXPECT_EQ(res.logits.dim(1), 10);
}

}  // namespace
}  // namespace stepping::serve
