// Batch re-formation + predictive admission control tests (ISSUE 9).
//
// The contract: re-formation is performance-only. Each batched-GEMM output
// row is computed independently in serial order, so per-request logits are
// bitwise identical no matter how survivors re-merge across batches, worker
// counts or max_batch settings. Admission decisions are pure functions
// of (deadline, queue depth, workers, max_batch, mode) — tests drive them
// with synthetic clocks and depths, no timers involved.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "core/latency.h"
#include "models/models.h"
#include "serve/planner.h"
#include "serve/queue.h"
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

ServeConfig reform_config(int workers, int max_batch) {
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = workers;
  cfg.max_batch = max_batch;
  cfg.admit = AdmitPolicy::kOff;
  cfg.device = synthetic_device();  // planning only; no deadline = no effect
  return cfg;
}

/// Budget that forces a request to exit exactly at `level` on the reuse
/// ladder (covers the ladder through `level`, not the next step).
std::int64_t budget_for_exit(const Planner& p, int level) {
  return p.costs().stepped_macs_through(level);
}

// ---------------------------------------------------------------------------
// LevelRunQueue: ordering inside a bucket, bounded admission, bucket
// selection and the termination protocol, driven with synthetic clocks.
// ---------------------------------------------------------------------------

Job make_rjob(std::uint64_t seq, double deadline_abs_ms) {
  Job j;
  j.seq = seq;
  j.deadline_abs_ms = deadline_abs_ms;
  return j;
}

TEST(ReformRunQueue, PopsInDeadlineOrderWithNoDeadlineLast) {
  LevelRunQueue q(16, 3);
  ASSERT_TRUE(q.push(make_rjob(0, 30.0)));
  ASSERT_TRUE(q.push(make_rjob(1, 10.0)));
  ASSERT_TRUE(q.push(make_rjob(2, 0.0)));  // no deadline: sorts last
  ASSERT_TRUE(q.push(make_rjob(3, 20.0)));
  EXPECT_EQ(q.depth(), 4u);
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(4, /*now_ms=*/0.0, /*urgent_slack_ms=*/0.0, batch));
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].seq, 1u);
  EXPECT_EQ(batch[1].seq, 3u);
  EXPECT_EQ(batch[2].seq, 0u);
  EXPECT_EQ(batch[3].seq, 2u);
}

TEST(ReformRunQueue, FifoAmongEqualDeadlines) {
  LevelRunQueue q(16, 3);
  for (std::uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(q.push(make_rjob(s, 5.0)));
  }
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(4, 0.0, 0.0, batch));
  ASSERT_EQ(batch.size(), 4u);
  for (std::uint64_t s = 0; s < 4; ++s) {
    EXPECT_EQ(batch[static_cast<std::size_t>(s)].seq, s);
  }
}

TEST(ReformRunQueue, PopBatchHonoursMaxBatch) {
  LevelRunQueue q(16, 3);
  for (std::uint64_t s = 0; s < 5; ++s) {
    ASSERT_TRUE(q.push(make_rjob(s, 1.0 + static_cast<double>(s))));
  }
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(2, 0.0, 0.0, batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.depth(), 3u);
  ASSERT_TRUE(q.pop_batch(2, 0.0, 0.0, batch));
  EXPECT_EQ(batch.size(), 2u);
  ASSERT_TRUE(q.pop_batch(2, 0.0, 0.0, batch));
  EXPECT_EQ(batch.size(), 1u);
  q.retire(5);
}

TEST(ReformRunQueue, CapacityCountsWaitingJobsAndNeverRefusesSurvivors) {
  LevelRunQueue q(2, 3);
  EXPECT_TRUE(q.push(make_rjob(0, 1.0)));
  EXPECT_TRUE(q.push(make_rjob(1, 2.0)));
  EXPECT_FALSE(q.push(make_rjob(2, 3.0)));  // two waiting: at capacity

  // A popped (in-flight) job frees its slot.
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(1, 0.0, 0.0, batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(q.push(make_rjob(3, 4.0)));
  EXPECT_FALSE(q.push(make_rjob(4, 5.0)));

  // Its survivor re-enters although the queue is full, and then counts
  // toward capacity like any waiting job.
  batch[0].level = 1;
  q.push_survivor(std::move(batch[0]));
  EXPECT_EQ(q.depth(), 3u);
  ASSERT_TRUE(q.pop_batch(1, 0.0, 0.0, batch));
  EXPECT_FALSE(q.push(make_rjob(5, 6.0))) << "two still waiting";
  q.retire(1);
  ASSERT_TRUE(q.pop_batch(1, 0.0, 0.0, batch));
  EXPECT_TRUE(q.push(make_rjob(6, 7.0)));
  q.retire(1);
}

TEST(ReformRunQueue, CloseDrainsThenStops) {
  LevelRunQueue q(8, 3);
  ASSERT_TRUE(q.push(make_rjob(0, 1.0)));
  ASSERT_TRUE(q.push(make_rjob(1, 2.0)));
  q.close();
  EXPECT_FALSE(q.push(make_rjob(2, 3.0)));
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(8, 0.0, 0.0, batch));  // drains the admitted jobs
  EXPECT_EQ(batch.size(), 2u);
  q.retire(batch.size());
  EXPECT_FALSE(q.pop_batch(8, 0.0, 0.0, batch))
      << "closed + empty + nothing in flight must return false";
}

TEST(ReformRunQueue, PopsFullestBucketAndOnlyOneLevel) {
  LevelRunQueue q(16, 3);
  for (std::uint64_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(q.push(make_rjob(s, 0.0)));
  }
  Job s1 = make_rjob(10, 0.0);
  s1.level = 1;
  Job s2 = make_rjob(11, 0.0);
  s2.level = 1;
  q.push_survivor(std::move(s1));
  q.push_survivor(std::move(s2));
  EXPECT_EQ(q.depth(), 5u);

  // Bucket 0 (fill 3) beats bucket 1 (fill 2); the pop is single-level.
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(4, /*now_ms=*/0.0, /*urgent_slack_ms=*/0.0, batch));
  ASSERT_EQ(batch.size(), 3u);
  for (const Job& j : batch) EXPECT_EQ(j.level, 0);
  q.retire(batch.size());

  ASSERT_TRUE(q.pop_batch(4, 0.0, 0.0, batch));
  ASSERT_EQ(batch.size(), 2u);
  for (const Job& j : batch) EXPECT_EQ(j.level, 1);
  q.retire(batch.size());
}

TEST(ReformRunQueue, UrgentHeadOverridesFill) {
  LevelRunQueue q(16, 3);
  for (std::uint64_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(q.push(make_rjob(s, 0.0)));  // no deadline: never urgent
  }
  Job urgent = make_rjob(10, /*deadline_abs_ms=*/5.0);
  urgent.level = 1;
  q.push_survivor(std::move(urgent));

  // Plenty of slack: fill wins, bucket 0 first.
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(4, /*now_ms=*/0.0, /*urgent_slack_ms=*/1.0, batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.front().level, 0);
  // Put them back untouched so only the urgency changes between pops.
  for (Job& j : batch) {
    j.level = 0;
    q.push_survivor(std::move(j));
  }

  // Slack below the threshold: the urgent survivor's bucket is served first
  // even though bucket 0 is fuller.
  ASSERT_TRUE(q.pop_batch(4, /*now_ms=*/4.5, /*urgent_slack_ms=*/1.0, batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().seq, 10u);
  q.retire(1);
  ASSERT_TRUE(q.pop_batch(4, 4.5, 1.0, batch));
  EXPECT_EQ(batch.size(), 3u);
  q.retire(batch.size());
}

TEST(ReformRunQueue, CloseRefusesAdmissionsButAcceptsSurvivors) {
  LevelRunQueue q(16, 3);
  ASSERT_TRUE(q.push(make_rjob(0, 0.0)));
  ASSERT_TRUE(q.push(make_rjob(1, 0.0)));
  std::vector<Job> batch;
  ASSERT_TRUE(q.pop_batch(2, 0.0, 0.0, batch));
  ASSERT_EQ(batch.size(), 2u);

  q.close();
  EXPECT_FALSE(q.push(make_rjob(2, 0.0)));  // new admissions refused

  // An admitted request is never dropped: its survivor re-enters even after
  // close, and pop_batch keeps draining until nothing is in flight.
  batch[0].level = 1;
  q.push_survivor(std::move(batch[0]));
  q.retire(1);  // batch[1] finalized
  ASSERT_TRUE(q.pop_batch(2, 0.0, 0.0, batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().level, 1);
  q.retire(1);
  EXPECT_FALSE(q.pop_batch(2, 0.0, 0.0, batch))
      << "closed + drained + nothing in flight must return false";
}

// ---------------------------------------------------------------------------
// Re-formation determinism: logits are bitwise identical to a direct forward
// of the exit subnet for EVERY batch composition — worker counts and
// max_batch settings only change when work happens.
// ---------------------------------------------------------------------------

TEST(ServeReform, LogitsBitwiseIdenticalAcrossWorkersBatchesAndModes) {
  Network net = nested_net();
  Network ref = net.clone();
  constexpr int kRequests = 12;
  for (const int workers : {1, 3}) {
    for (const int max_batch : {1, 2, 5}) {
      Server server(net, reform_config(workers, max_batch));
      std::vector<Tensor> inputs;
      std::vector<int> want(kRequests);
      std::vector<std::future<ServedResult>> futures;
      for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(random_input(900 + static_cast<std::uint64_t>(i)));
        want[static_cast<std::size_t>(i)] = 1 + (i % 3);
        Request req;
        req.input = inputs[static_cast<std::size_t>(i)];
        req.mac_budget = budget_for_exit(server.planner(),
                                         want[static_cast<std::size_t>(i)]);
        futures.push_back(server.submit(std::move(req)));
      }
      for (int i = 0; i < kRequests; ++i) {
        const ServedResult res = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(res.exit_subnet, want[static_cast<std::size_t>(i)])
            << "workers=" << workers << " max_batch=" << max_batch
            << " request " << i;
        SubnetContext ctx;
        ctx.subnet_id = res.exit_subnet;
        const Tensor direct =
            ref.forward(inputs[static_cast<std::size_t>(i)], ctx);
        ASSERT_EQ(res.logits.shape(), direct.shape());
        ASSERT_EQ(0, std::memcmp(res.logits.data(), direct.data(),
                                 sizeof(float) * static_cast<std::size_t>(
                                                     direct.numel())))
            << "re-formation must never change the answer (workers="
            << workers << " max_batch=" << max_batch << " request " << i
            << ")";
      }
    }
  }
}

TEST(ServeReform, PassCountersAttributeEveryLiveRowExactlyOnce) {
  Network net = nested_net();
  Server server(net, reform_config(/*workers=*/2, /*max_batch=*/4));
  constexpr int kRequests = 16;
  std::vector<std::future<ServedResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.input = random_input(700 + static_cast<std::uint64_t>(i));
    futures.push_back(server.submit(std::move(req)));  // full ladder
  }
  for (auto& f : futures) f.get();

  const CounterSnapshot s = server.counters();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.batched_inputs, static_cast<std::uint64_t>(kRequests));
  // Every request climbs levels 1..3 and is a live row in exactly one pass
  // per level, however the batches re-form.
  EXPECT_EQ(s.pass_rows, static_cast<std::uint64_t>(3 * kRequests));
  // Each pass carries 1..max_batch live rows; at least ceil(16/4) = 4 passes
  // per level even with perfect packing.
  EXPECT_GE(s.passes, 12u);
  EXPECT_LE(s.passes, static_cast<std::uint64_t>(3 * kRequests));
  EXPECT_GE(s.pass_occupancy(), 1.0);
  EXPECT_LE(s.pass_occupancy(), 4.0);
  EXPECT_GE(s.batches, 4u);  // admission micro-batches, max_batch = 4
}

// A cohort holding exactly the rows of one earlier pass steps that pass's
// state in place; the first rows of a pass whose other rows halted restack
// it. Either way every answer is bitwise a direct forward's.
TEST(ServeReform, CohortStepsInPlaceOnlyWhenItHoldsTheWholeEarlierPass) {
  Network net = nested_net();
  Network ref = net.clone();
  Server server(net, reform_config(/*workers=*/1, /*max_batch=*/4));
  const std::int64_t exit_at_one = budget_for_exit(server.planner(), 1);
  for (const int halting : {0, 2}) {
    // The only worker parks in a blocker's final callback, so the four
    // requests queue together and ride one level-1 pass.
    std::mutex mu;
    std::condition_variable cv;
    bool parked = false, released = false;
    Request blocker;
    blocker.input = random_input(600);
    blocker.mac_budget = exit_at_one;
    blocker.on_step = [&](const StepUpdate& u) {
      if (!u.final) return;
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    };
    std::future<ServedResult> blocked = server.submit(std::move(blocker));
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] { return parked; }));
    }
    std::vector<Tensor> xs;
    std::vector<std::future<ServedResult>> futs;
    for (int i = 0; i < 4; ++i) {
      Request req;
      req.input = random_input(610 + static_cast<std::uint64_t>(10 * halting + i));
      xs.push_back(req.input);
      // The last `halting` rows stop at level 1, the rest climb to level 3.
      if (i >= 4 - halting) req.mac_budget = exit_at_one;
      futs.push_back(server.submit(std::move(req)));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
    EXPECT_EQ(blocked.get().exit_subnet, 1);
    for (int i = 0; i < 4; ++i) {
      const ServedResult res = futs[static_cast<std::size_t>(i)].get();
      EXPECT_EQ(res.exit_subnet, i >= 4 - halting ? 1 : 3) << halting << " " << i;
      SubnetContext ctx;
      ctx.subnet_id = res.exit_subnet;
      const Tensor direct = ref.forward(xs[static_cast<std::size_t>(i)], ctx);
      ASSERT_EQ(res.logits.shape(), direct.shape());
      EXPECT_EQ(0, std::memcmp(res.logits.data(), direct.data(),
                               sizeof(float) * static_cast<std::size_t>(direct.numel())))
          << "halting=" << halting << " row " << i;
    }
  }
}

TEST(ServeReform, TimelineRecordsBatchRejoinOnlyUnderReformation) {
  Network net = nested_net();
  Server server(net, reform_config(1, 4));
  Request req;
  req.input = random_input(55);
  const ServedResult res = server.serve(std::move(req));
  ASSERT_EQ(res.exit_subnet, 3);
  // The single request is retained as a straggler; its level-2 and level-3
  // passes are re-stacked pops, stamped batch_rejoin.
  const std::string pm = server.postmortems_json();
  EXPECT_NE(pm.find("\"batch_rejoin\""), std::string::npos) << pm;
}

// ---------------------------------------------------------------------------
// Predictive admission control: pure planner decisions first, then the
// server-level accept / degrade / reject paths.
// ---------------------------------------------------------------------------

TEST(ServeAdmit, DecisionIsDeterministicAndMonotonicInDepth) {
  const Planner p(synthetic_costs(), synthetic_device());
  const int workers = 2, max_batch = 4;
  const Planner::LadderMode mode = Planner::LadderMode::kReuse;

  // No deadline: always admitted at the full ladder, whatever the depth.
  for (const std::size_t depth : {0u, 7u, 1000u}) {
    const Planner::AdmitDecision d =
        p.admit_decision(0.0, depth, workers, max_batch, mode);
    EXPECT_TRUE(d.admit);
    EXPECT_FALSE(d.degraded);
    EXPECT_EQ(d.target, 4);
  }

  // An empty queue predicts zero wait; deeper queues predict (weakly) more.
  EXPECT_EQ(p.predicted_queue_ms(0, workers, max_batch, mode), 0.0);
  double prev = 0.0;
  for (std::size_t depth = 1; depth <= 64; depth *= 2) {
    const double wait = p.predicted_queue_ms(depth, workers, max_batch, mode);
    EXPECT_GE(wait, prev) << "depth " << depth;
    prev = wait;
  }

  // With a fixed generous-but-finite deadline, the reachable target can only
  // fall as the queue deepens, and the same inputs give the same verdict.
  const double deadline = p.ladder_ms(4, max_batch) + 0.01;
  int prev_target = 5;
  for (std::size_t depth = 0; depth <= 256; depth = depth ? depth * 4 : 1) {
    const Planner::AdmitDecision d =
        p.admit_decision(deadline, depth, workers, max_batch, mode);
    EXPECT_LE(d.target, prev_target) << "depth " << depth;
    EXPECT_EQ(d.admit, d.target >= 1);
    EXPECT_EQ(d.degraded, d.admit && d.target < 4);
    const Planner::AdmitDecision again =
        p.admit_decision(deadline, depth, workers, max_batch, mode);
    EXPECT_EQ(again.admit, d.admit);
    EXPECT_EQ(again.target, d.target);
    EXPECT_EQ(again.predicted_wait_ms, d.predicted_wait_ms);
    prev_target = d.target;
  }

  // Hopeless: even level 1 is predicted late -> not admitted.
  const Planner::AdmitDecision hopeless =
      p.admit_decision(1e-4, 0, workers, max_batch, mode);
  EXPECT_FALSE(hopeless.admit);
  EXPECT_EQ(hopeless.target, 0);
}

TEST(ServeAdmit, OffPolicyIsAPinnedNoOp) {
  Network net = nested_net();
  ::unsetenv("STEPPING_ADMIT");
  ServeConfig cfg = reform_config(1, 4);
  cfg.admit = AdmitPolicy::kEnv;  // resolves to kOff
  Server server(net, cfg);
  EXPECT_EQ(server.config().admit, AdmitPolicy::kOff);
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.input = random_input(40 + static_cast<std::uint64_t>(i));
    req.deadline_ms = 1e6;  // a deadline alone must not trigger admission
    server.serve(std::move(req));
  }
  const CounterSnapshot s = server.counters();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.admit_accepted, 0u);
  EXPECT_EQ(s.admit_degraded, 0u);
  EXPECT_EQ(s.admit_rejected, 0u);
}

TEST(ServeAdmit, RejectFailsHopelessRequestsWithoutCountingAMiss) {
  Network net = nested_net();
  ServeConfig cfg = reform_config(1, 4);
  cfg.admit = AdmitPolicy::kReject;
  Server server(net, cfg);

  Request req;
  req.input = random_input(41);
  req.deadline_ms = 1e-4;  // even level 1 is predicted to finish late
  auto fut = server.submit(std::move(req));
  try {
    fut.get();
    FAIL() << "hopeless request must be rejected at admission";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos)
        << e.what();
  }
  CounterSnapshot s = server.counters();
  EXPECT_EQ(s.admit_rejected, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.deadline_misses, 0u)
      << "a rejected request never ran, so it cannot count as a miss";

  // A request without a deadline is always admitted and completes normally.
  Request ok;
  ok.input = random_input(42);
  const ServedResult res = server.serve(std::move(ok));
  EXPECT_EQ(res.exit_subnet, 3);
  s = server.counters();
  EXPECT_EQ(s.admit_accepted, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(ServeAdmit, DegradeCapsTheTargetLevel) {
  Network net = nested_net();
  ServeConfig cfg = reform_config(1, 4);
  cfg.admit = AdmitPolicy::kDegrade;
  Server server(net, cfg);
  const Planner& p = server.planner();

  // A deadline that reaches level 1 but not the full ladder (queue empty, so
  // the admission verdict is a pure function of this deadline).
  const double deadline =
      (p.ladder_ms(1, cfg.max_batch) + p.ladder_ms(2, cfg.max_batch)) / 2.0;
  const Planner::AdmitDecision want = p.admit_decision(
      deadline, 0, cfg.num_workers, cfg.max_batch, Planner::LadderMode::kReuse);
  ASSERT_TRUE(want.admit);
  ASSERT_TRUE(want.degraded);
  ASSERT_EQ(want.target, 1);

  Request req;
  req.input = random_input(43);
  req.deadline_ms = deadline;
  const ServedResult res = server.serve(std::move(req));
  EXPECT_LE(res.exit_subnet, want.target)
      << "the degrade cap bounds the exit level";
  const CounterSnapshot s = server.counters();
  EXPECT_EQ(s.admit_degraded, 1u);
  EXPECT_EQ(s.admit_rejected, 0u);
  EXPECT_EQ(s.completed, 1u);

  // Hopeless requests are still rejected under degrade.
  Request bad;
  bad.input = random_input(44);
  bad.deadline_ms = 1e-4;
  auto fut = server.submit(std::move(bad));
  EXPECT_THROW(fut.get(), std::runtime_error);
  EXPECT_EQ(server.counters().admit_rejected, 1u);
}

TEST(ServeAdmit, PolicyNamesParseAndRoundTrip) {
  AdmitPolicy p = AdmitPolicy::kEnv;
  EXPECT_TRUE(parse_admit_policy("off", &p));
  EXPECT_EQ(p, AdmitPolicy::kOff);
  EXPECT_TRUE(parse_admit_policy("reject", &p));
  EXPECT_EQ(p, AdmitPolicy::kReject);
  EXPECT_TRUE(parse_admit_policy("degrade", &p));
  EXPECT_EQ(p, AdmitPolicy::kDegrade);
  EXPECT_FALSE(parse_admit_policy("nope", &p));
  EXPECT_EQ(p, AdmitPolicy::kDegrade) << "failed parse must not clobber *out";
  EXPECT_STREQ(admit_policy_name(AdmitPolicy::kOff), "off");
  EXPECT_STREQ(admit_policy_name(AdmitPolicy::kReject), "reject");
  EXPECT_STREQ(admit_policy_name(AdmitPolicy::kDegrade), "degrade");

  ::setenv("STEPPING_ADMIT", "degrade", 1);
  Network net = nested_net();
  ServeConfig cfg = reform_config(1, 4);
  cfg.admit = AdmitPolicy::kEnv;
  Server server(net, cfg);
  EXPECT_EQ(server.config().admit, AdmitPolicy::kDegrade);
  ::unsetenv("STEPPING_ADMIT");
}

}  // namespace
}  // namespace stepping::serve
