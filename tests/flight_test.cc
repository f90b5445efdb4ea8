// Flight recorder + SLO tracker tests (ISSUE 8).
//
// The two contracts pinned here:
//  * Observation-only: served logits are bitwise identical with the
//    recorder on or off — the recorder may never change the answer.
//  * Drop, never block: ring wraparound onto an in-flight record and
//    per-record event overflow drop the new data and count it; nothing
//    in the hot path waits.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/latency.h"
#include "models/models.h"
#include "obs/flight.h"
#include "obs/slo.h"
#include "serve/planner.h"
#include "serve/server.h"
#include "tensor/ops.h"

namespace stepping::obs {
namespace {

using serve::LevelCosts;
using serve::Planner;
using serve::Request;
using serve::ServeConfig;
using serve::ServedResult;
using serve::Server;

FlightRecorder::Config small_cfg(int ring, int misses = 8, int stragglers = 4) {
  FlightRecorder::Config cfg;
  cfg.ring = ring;
  cfg.retain_misses = misses;
  cfg.retain_stragglers = stragglers;
  return cfg;
}

// ---------------------------------------------------------------------------
// FlightRecorder: ring mechanics, drop accounting, retention.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DisabledRingRecordsNothingAndCountsNoDrops) {
  FlightRecorder rec(small_cfg(/*ring=*/0));
  EXPECT_FALSE(rec.enabled());
  FlightHandle h = rec.begin(1, 0.0, 0.0, 0);
  EXPECT_FALSE(static_cast<bool>(h));
  // A disabled recorder is not "dropping" — it was asked to do nothing.
  EXPECT_EQ(rec.records(), 0u);
  EXPECT_EQ(rec.ring_dropped(), 0u);
  // Null-handle calls are no-ops, not errors.
  rec.event(h, FlightEventKind::kEnqueue, 0.0);
  rec.set_batch(h, 1, 1, 1, 0);
  rec.set_level(h, 1, 1.0, 1.0, 100);
  rec.finish(h, 1, HaltReason::kMaxLevel, false, 0.0, 0.0, 1.0);
  EXPECT_EQ(rec.records(), 0u);
  EXPECT_NE(rec.postmortems_json().find("\"ring\":0"), std::string::npos);
}

TEST(FlightRecorder, WraparoundOntoOpenRecordDropsTheNewRequest) {
  FlightRecorder rec(small_cfg(/*ring=*/2));
  FlightHandle h1 = rec.begin(1, 0.0, 0.0, 0);
  FlightHandle h2 = rec.begin(2, 0.0, 0.0, 0);
  ASSERT_TRUE(static_cast<bool>(h1));
  ASSERT_TRUE(static_cast<bool>(h2));
  // Both slots are open: the next begin wraps onto slot 0 and must drop.
  FlightHandle h3 = rec.begin(3, 0.0, 0.0, 0);
  EXPECT_FALSE(static_cast<bool>(h3));
  EXPECT_EQ(rec.ring_dropped(), 1u);

  rec.finish(h1, 1, HaltReason::kMaxLevel, false, 0.0, 0.0, 1.0);
  // The cursor has moved on: the next begin targets slot 1, still open.
  FlightHandle h4 = rec.begin(4, 0.0, 0.0, 0);
  EXPECT_FALSE(static_cast<bool>(h4));
  EXPECT_EQ(rec.ring_dropped(), 2u);

  rec.finish(h2, 1, HaltReason::kMaxLevel, false, 0.0, 0.0, 1.0);
  // Slot 0 is kDone now — reusable.
  FlightHandle h5 = rec.begin(5, 0.0, 0.0, 0);
  EXPECT_TRUE(static_cast<bool>(h5));
  rec.finish(h5, 1, HaltReason::kMaxLevel, false, 0.0, 0.0, 1.0);
  EXPECT_EQ(rec.records(), 3u);
}

TEST(FlightRecorder, EventOverflowDropsAndCountsPerRecordAndGlobally) {
  FlightRecorder rec(small_cfg(/*ring=*/4));
  FlightHandle h = rec.begin(7, 0.0, 0.0, 0);
  ASSERT_TRUE(static_cast<bool>(h));
  const int extra = 5;
  for (int i = 0; i < kFlightMaxEvents + extra; ++i) {
    rec.event(h, FlightEventKind::kStepStart, static_cast<double>(i), i);
  }
  rec.finish(h, 1, HaltReason::kMaxLevel, /*missed=*/true, 0.0, 0.5, 1.0);
  EXPECT_EQ(rec.events_dropped(), static_cast<std::uint64_t>(extra));
  std::vector<FlightData> misses = rec.retained_misses();
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].num_events, kFlightMaxEvents);
  EXPECT_EQ(misses[0].events_dropped, static_cast<std::uint32_t>(extra));
  // The kept prefix is intact: stamped in submission order.
  EXPECT_EQ(misses[0].events[kFlightMaxEvents - 1].a0, kFlightMaxEvents - 1);
}

TEST(FlightRecorder, SetLevelIgnoresOutOfRangeLevels) {
  FlightRecorder rec(small_cfg(/*ring=*/2));
  FlightHandle h = rec.begin(1, 0.0, 0.0, 0);
  ASSERT_TRUE(static_cast<bool>(h));
  rec.set_level(h, 0, 1.0, 1.0, 10);                     // below range
  rec.set_level(h, kFlightMaxLevels + 1, 1.0, 1.0, 10);  // above range
  rec.set_level(h, 2, 0.25, 0.5, 42);
  rec.finish(h, 2, HaltReason::kTarget, /*missed=*/true, 0.0, 0.5, 1.0);
  std::vector<FlightData> misses = rec.retained_misses();
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].num_levels, 2);
  EXPECT_EQ(misses[0].predicted_ms[1], 0.25);
  EXPECT_EQ(misses[0].actual_ms[1], 0.5);
  EXPECT_EQ(misses[0].level_macs[1], 42);
}

TEST(FlightRecorder, MissRetentionKeepsMostRecent) {
  FlightRecorder rec(small_cfg(/*ring=*/8, /*misses=*/2, /*stragglers=*/0));
  for (std::uint64_t id = 11; id <= 13; ++id) {
    FlightHandle h = rec.begin(id, 0.0, 1.0, 0);
    ASSERT_TRUE(static_cast<bool>(h));
    rec.finish(h, 1, HaltReason::kDeadline, /*missed=*/true, 0.0, 2.0, 2.0);
  }
  std::vector<FlightData> misses = rec.retained_misses();
  ASSERT_EQ(misses.size(), 2u);  // capped; oldest evicted
  EXPECT_EQ(misses[0].request_id, 12u);
  EXPECT_EQ(misses[1].request_id, 13u);
}

TEST(FlightRecorder, StragglerRetentionKeepsWorstNSortedDescending) {
  FlightRecorder rec(small_cfg(/*ring=*/8, /*misses=*/0, /*stragglers=*/3));
  for (int i = 1; i <= 6; ++i) {
    FlightHandle h = rec.begin(static_cast<std::uint64_t>(i), 0.0, 0.0, 0);
    ASSERT_TRUE(static_cast<bool>(h));
    rec.finish(h, 1, HaltReason::kMaxLevel, /*missed=*/false, 0.0, 0.0,
               static_cast<double>(i));
  }
  std::vector<FlightData> worst = rec.retained_stragglers();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_EQ(worst[0].final_ms, 6.0);
  EXPECT_EQ(worst[1].final_ms, 5.0);
  EXPECT_EQ(worst[2].final_ms, 4.0);
}

TEST(FlightRecorder, RejectedRecordsAreNotPostmortemMaterial) {
  FlightRecorder rec(small_cfg(/*ring=*/4));
  FlightHandle h = rec.begin(1, 0.0, 0.0, 0);
  ASSERT_TRUE(static_cast<bool>(h));
  // exit_level 0 marks a never-executed request (rejection/shutdown).
  rec.finish(h, 0, HaltReason::kRejected, /*missed=*/false, 0.0, 0.0, 0.0);
  EXPECT_TRUE(rec.retained_misses().empty());
  EXPECT_TRUE(rec.retained_stragglers().empty());
}

TEST(FlightRecorder, PostmortemJsonCarriesTimelineAndPlanError) {
  FlightRecorder rec(small_cfg(/*ring=*/4));
  FlightHandle h = rec.begin(42, 1.5, 4.0, 1000);
  ASSERT_TRUE(static_cast<bool>(h));
  rec.event(h, FlightEventKind::kEnqueue, 1.5);
  rec.event(h, FlightEventKind::kAdmit, 1.75, /*worker=*/3);
  rec.event(h, FlightEventKind::kBatchJoin, 1.75, /*batch_id=*/9, /*size=*/2);
  rec.set_batch(h, 9, 2, 1, 0);
  rec.event(h, FlightEventKind::kStepStart, 1.8, 1, 2);
  rec.event(h, FlightEventKind::kStepEnd, 4.5, 1, 100, 812000);
  rec.set_level(h, 1, 0.5, 2.7, 100);
  rec.event(h, FlightEventKind::kPrelimPublish, 4.5, 1, 812000);
  rec.event(h, FlightEventKind::kHalt, 4.5,
            static_cast<std::int64_t>(HaltReason::kDeadline), 1);
  rec.event(h, FlightEventKind::kFinalPublish, 4.6, 1, 1);
  rec.finish(h, 1, HaltReason::kDeadline, /*missed=*/true, 0.25, 3.0, 3.1);

  const std::string json = rec.postmortems_json();
  for (const char* needle :
       {"\"kind\":\"deadline_miss\"", "\"request_id\":42",
        "\"halt_reason\":\"deadline\"", "\"missed\":true",
        "\"event\":\"enqueue\"", "\"worker\":3", "\"batch_id\":9",
        "\"event\":\"step_start\"", "\"event\":\"prelim_publish\"",
        "\"reason\":\"deadline\"", "\"event\":\"final_publish\"",
        "\"predicted_ms\":0.5", "\"actual_ms\":2.7", "\"macs\":100"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
  // Deterministic formatting: equal state renders byte-equal bytes.
  EXPECT_EQ(json, rec.postmortems_json());
}

TEST(FlightRecorder, EnvKnobsResolveWhenConfigIsDefault) {
  ::setenv("STEPPING_FLIGHT_RING", "8", 1);
  ::setenv("STEPPING_FLIGHT_RETAIN", "1", 1);
  ::setenv("STEPPING_FLIGHT_STRAGGLERS", "1", 1);
  {
    FlightRecorder rec;
    EXPECT_EQ(rec.ring_size(), 8u);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      FlightHandle h = rec.begin(id, 0.0, 1.0, 0);
      ASSERT_TRUE(static_cast<bool>(h));
      rec.finish(h, 1, HaltReason::kDeadline, /*missed=*/true, 0.0, 2.0, 2.0);
    }
    EXPECT_EQ(rec.retained_misses().size(), 1u);
    EXPECT_EQ(rec.retained_stragglers().size(), 1u);
  }
  ::unsetenv("STEPPING_FLIGHT_RING");
  ::unsetenv("STEPPING_FLIGHT_RETAIN");
  ::unsetenv("STEPPING_FLIGHT_STRAGGLERS");
}

TEST(FlightRecorder, ConcurrentBeginFinishConservesEveryAttempt) {
  FlightRecorder rec(small_cfg(/*ring=*/64, /*misses=*/4, /*stragglers=*/4));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto id = static_cast<std::uint64_t>(t * kPerThread + i);
        FlightHandle h = rec.begin(id, 0.0, 0.0, 0);
        if (!h) continue;  // dropped — counted, not an error
        rec.event(h, FlightEventKind::kEnqueue, 0.0);
        rec.event(h, FlightEventKind::kAdmit, 0.1, t);
        rec.set_level(h, 1, 0.5, 0.6, 100);
        rec.finish(h, 1, HaltReason::kMaxLevel, false, 0.0, 0.5,
                   static_cast<double>(i % 7));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // Every begin() either recorded or counted a drop — nothing vanishes.
  EXPECT_EQ(rec.records() + rec.ring_dropped(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GT(rec.records(), 0u);
  EXPECT_EQ(rec.events_dropped(), 0u);
  // The retained buffers and dump stay coherent under the mutex.
  const std::string json = rec.postmortems_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_LE(rec.retained_stragglers().size(), 4u);
}

// ---------------------------------------------------------------------------
// SloTracker: synthetic-timestamp window edge cases.
// ---------------------------------------------------------------------------

TEST(SloTracker, EmptyWindowReportsPerfectHitRateZeroBurn) {
  SloTracker slo(SloTracker::Config{60.0, 60, 0.99});
  const SloTracker::WindowStats s = slo.window(0.0);
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.missed, 0u);
  EXPECT_EQ(s.hit_rate, 1.0);
  EXPECT_EQ(s.budget_burn, 0.0);
}

TEST(SloTracker, SingleMissBurnsTheFullInverseBudget) {
  SloTracker slo(SloTracker::Config{10.0, 10, 0.9});
  slo.record(500.0, /*miss=*/true);
  const SloTracker::WindowStats s = slo.window(600.0);
  EXPECT_EQ(s.total, 1u);
  EXPECT_EQ(s.missed, 1u);
  EXPECT_EQ(s.hit_rate, 0.0);
  EXPECT_NEAR(s.budget_burn, 10.0, 1e-9);  // miss_rate 1.0 / (1 - 0.9)
}

TEST(SloTracker, BucketsOlderThanTheWindowAreExcluded) {
  // 2 s window, two 1 s buckets.
  SloTracker slo(SloTracker::Config{2.0, 2, 0.5});
  slo.record(100.0, /*miss=*/false);   // bucket id 0
  slo.record(1100.0, /*miss=*/true);   // bucket id 1
  const SloTracker::WindowStats in = slo.window(1500.0);
  EXPECT_EQ(in.total, 2u);
  EXPECT_EQ(in.missed, 1u);
  EXPECT_NEAR(in.hit_rate, 0.5, 1e-12);
  EXPECT_NEAR(in.budget_burn, 1.0, 1e-9);
  // Two buckets later both are stale even though never overwritten.
  const SloTracker::WindowStats out = slo.window(3500.0);
  EXPECT_EQ(out.total, 0u);
  EXPECT_EQ(out.hit_rate, 1.0);
}

TEST(SloTracker, LappedBucketResetsForTheNewInterval) {
  SloTracker slo(SloTracker::Config{2.0, 2, 0.5});
  slo.record(100.0, /*miss=*/true);  // bucket id 0 -> slot 0
  slo.record(2100.0, /*miss=*/false);  // bucket id 2 laps slot 0, resets it
  const SloTracker::WindowStats s = slo.window(2500.0);
  EXPECT_EQ(s.total, 1u);
  EXPECT_EQ(s.missed, 0u);
  EXPECT_EQ(s.hit_rate, 1.0);
}

TEST(SloTracker, SummaryRendersRatesAndBurn) {
  SloTracker slo(SloTracker::Config{60.0, 60, 0.99});
  slo.record(100.0, false);
  slo.record(200.0, false);
  slo.record(300.0, true);
  const std::string line = slo.summary(400.0);
  EXPECT_NE(line.find("completed=3"), std::string::npos) << line;
  EXPECT_NE(line.find("misses=1"), std::string::npos) << line;
  EXPECT_NE(line.find("hit_rate=66.67%"), std::string::npos) << line;
  EXPECT_NE(line.find("objective=99.00%"), std::string::npos) << line;
  EXPECT_NE(line.find("budget_burn=33.33x"), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// Planner prediction figures: the exact numbers the flight recorder stores.
// ---------------------------------------------------------------------------

TEST(PlannerPrediction, LadderModesReproducePlanningFigures) {
  LevelCosts c;
  c.full = {100'000, 300'000, 600'000, 1'000'000};
  c.body = {90'000, 290'000, 590'000, 990'000};
  DeviceModel dev;
  dev.name = "synthetic";
  dev.macs_per_second = 1e8;
  dev.fixed_overhead_ms = 0.5;
  const Planner p(c, dev);
  for (int level = 1; level <= 4; ++level) {
    for (int batch : {1, 3}) {
      EXPECT_EQ(p.predicted_level_ms(level, batch, Planner::LadderMode::kReuse),
                p.step_ms(level - 1, level, batch));
      EXPECT_EQ(
          p.predicted_level_ms(level, batch, Planner::LadderMode::kFromScratch),
          dev.latency_ms(c.full[static_cast<std::size_t>(level - 1)] * batch));
      // Deterministic: same inputs, same figure, every call.
      EXPECT_EQ(p.predicted_level_ms(level, batch, Planner::LadderMode::kReuse),
                p.predicted_level_ms(level, batch,
                                     Planner::LadderMode::kReuse));
    }
  }
}

// ---------------------------------------------------------------------------
// Server-level: bitwise invisibility and forced-miss postmortems.
// ---------------------------------------------------------------------------

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

TEST(FlightServe, RecorderOnOrOffServesBitwiseIdenticalLogits) {
  Network net = nested_net();
  auto run = [&net](int ring) {
    ServeConfig cfg;
    cfg.max_subnet = 3;
    cfg.num_workers = 2;
    cfg.max_batch = 4;
    cfg.flight.ring = ring;
    cfg.flight.retain_misses = 8;
    cfg.flight.retain_stragglers = 4;
    Server server(net, cfg);
    std::vector<int> exits;
    std::vector<std::vector<float>> logits;
    for (int i = 0; i < 8; ++i) {
      Request req;
      req.input = random_input(static_cast<std::uint64_t>(7000 + i));
      const ServedResult res = server.serve(std::move(req));
      exits.push_back(res.exit_subnet);
      logits.emplace_back(
          res.logits.data(),
          res.logits.data() + static_cast<std::size_t>(res.logits.numel()));
    }
    server.shutdown();
    return std::make_pair(exits, logits);
  };
  const auto on = run(/*ring=*/64);
  const auto off = run(/*ring=*/0);
  EXPECT_EQ(on.first, off.first);
  ASSERT_EQ(on.second.size(), off.second.size());
  for (std::size_t i = 0; i < on.second.size(); ++i) {
    ASSERT_EQ(on.second[i].size(), off.second[i].size());
    EXPECT_EQ(std::memcmp(on.second[i].data(), off.second[i].data(),
                          sizeof(float) * on.second[i].size()),
              0)
        << "recorder changed logits of request " << i;
  }
}

TEST(FlightServe, ForcedMissYieldsOrderedTimelineAndPostmortem) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.flight.ring = 32;
  cfg.flight.retain_misses = 8;
  cfg.flight.retain_stragglers = 4;
  Server server(net, cfg);
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.input = random_input(static_cast<std::uint64_t>(i));
    req.deadline_ms = 1e-3;  // un-meetable: every request misses
    const ServedResult res = server.serve(std::move(req));
    EXPECT_TRUE(res.deadline_missed);
    EXPECT_GE(res.exit_subnet, 1);
  }
  server.shutdown();

  const FlightRecorder& rec = server.flight();
  EXPECT_EQ(rec.records(), 4u);
  EXPECT_EQ(rec.ring_dropped(), 0u);
  EXPECT_EQ(rec.events_dropped(), 0u);

  std::vector<FlightData> misses = rec.retained_misses();
  ASSERT_EQ(misses.size(), 4u);
  const FlightData& d = misses.front();
  EXPECT_TRUE(d.missed);
  EXPECT_EQ(d.halt, HaltReason::kDeadline);
  EXPECT_GE(d.exit_level, 1);
  EXPECT_GT(d.deadline_abs_ms, 0.0);
  ASSERT_GE(d.num_levels, 1);
  EXPECT_GT(d.predicted_ms[0], 0.0);  // the planner's figure rides along
  EXPECT_GT(d.actual_ms[0], 0.0);
  EXPECT_GT(d.level_macs[0], 0);
  // The timeline is causal: enqueue first, final publish last, time
  // monotonically non-decreasing in between.
  ASSERT_GE(d.num_events, 5);
  EXPECT_EQ(d.events[0].kind, FlightEventKind::kEnqueue);
  EXPECT_EQ(d.events[d.num_events - 1].kind, FlightEventKind::kFinalPublish);
  for (int i = 1; i < d.num_events; ++i) {
    EXPECT_GE(d.events[i].t_ms, d.events[i - 1].t_ms) << "event " << i;
  }

  const std::string json = server.postmortems_json();
  for (const char* needle :
       {"\"kind\":\"deadline_miss\"", "\"halt_reason\":\"deadline\"",
        "\"timeline\":[", "\"event\":\"enqueue\"",
        "\"event\":\"final_publish\"", "\"predicted_ms\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  // The SLO window saw all four misses; the recorder dropped nothing.
  EXPECT_NE(server.slo_summary().find("misses=4"), std::string::npos);
  EXPECT_NE(server.flight_summary().find("drops=0"), std::string::npos);

  // Plan-error telemetry and build identity ride the standard exposition.
  const std::string metrics = server.metrics_json();
  EXPECT_NE(metrics.find("\"serve_plan_error_ratio_subnet_1\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"stepping_build_info\""), std::string::npos);
  EXPECT_NE(metrics.find("\"serve_slo_hit_rate_ppm\""), std::string::npos);
  const std::string prom = server.metrics_prometheus();
  EXPECT_NE(prom.find("stepping_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("serve_flight_records"), std::string::npos);
}

TEST(FlightServe, HealthyRunHitsNoMissesAndBurnsNoBudget) {
  Network net = nested_net();
  ServeConfig cfg;
  cfg.max_subnet = 3;
  cfg.num_workers = 1;
  cfg.flight.ring = 16;
  Server server(net, cfg);
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.input = random_input(static_cast<std::uint64_t>(100 + i));
    const ServedResult res = server.serve(std::move(req));
    EXPECT_FALSE(res.deadline_missed);
    EXPECT_EQ(res.exit_subnet, 3);  // no deadline: the full ladder runs
  }
  server.shutdown();
  EXPECT_TRUE(server.flight().retained_misses().empty());
  // Stragglers are retained even on healthy runs — that is their point.
  EXPECT_FALSE(server.flight().retained_stragglers().empty());
  const std::string line = server.slo_summary();
  EXPECT_NE(line.find("misses=0"), std::string::npos) << line;
  EXPECT_NE(line.find("hit_rate=100.00%"), std::string::npos) << line;
  EXPECT_NE(line.find("budget_burn=0.00x"), std::string::npos) << line;
}

}  // namespace
}  // namespace stepping::obs
