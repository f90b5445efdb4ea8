// Load generator for the anytime-inference serving subsystem (ISSUE 2).
//
// Two modes:
//
//  * default: in-process closed- and open-loop load against serve::Server,
//    once with incremental reuse and once with the no-reuse baseline (every
//    refinement level re-runs the full subnet). Reports throughput,
//    p50/p95/p99 latency, deadline-miss rate, mean exit subnet and mean
//    MACs/request; the summary line shows the reuse saving at equal exit
//    levels (same inputs, same ladder, so accuracy is identical by
//    construction). A final tight-deadline open-loop run demonstrates
//    step-down under load.
//
//  * --smoke: drive a TCP server (self-hosted on an ephemeral port, or an
//    external `steppingnet serve` via --port) from several client threads
//    and check that every reply's logits are bitwise-identical to a direct
//    Network::forward of the reply's exit subnet on the same input. Prints a
//    single `smoke: parity=...` line for CI to grep; --shutdown sends the
//    kShutdown opcode afterwards so the server exits and dumps counters.
//
// The default mode also measures the flight recorder's cost (ISSUE 8):
// identical closed-loop load with the recorder on vs off, plus the idle
// per-event-site cost with recording disabled, and writes every run
// machine-readably to BENCH_serve.json in the working directory. --smoke
// additionally fires a few hopeless-deadline requests, fetches the
// kTimeline postmortem dump and writes it to BENCH_timeline.json.
//
// Honours STEPPING_SCALE (quick|full|paper) for request counts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/any_width.h"
#include "common.h"
#include "core/macs.h"
#include "obs/flight.h"
#include "core/serialize.h"
#include "models/models.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "tensor/ops.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

namespace stepping::bench {
namespace {

struct ServeBenchConfig {
  std::string model = "lenet3c1l";
  int classes = 10;
  double expansion = 1.8;
  double width = 0.25;
  int subnets = 4;
  std::uint64_t seed = 42;
  std::string in;  ///< optional serialized weights (must match the flags)
  int workers = 2;
  int batch = 4;
  int clients = 4;
  int requests = 0;  ///< per client; 0 = scale default
};

/// Build the model exactly like the CLI does (so --in files written by
/// `steppingnet train` load here too); without --in, fall back to prefix
/// subnet assignments on the random-init net (bench_threads' trick — the
/// serving numbers don't depend on trained weights).
Network make_model(const ServeBenchConfig& c) {
  ModelConfig mc;
  mc.classes = c.classes;
  mc.expansion = c.expansion;
  mc.width_mult = c.width;
  mc.seed = c.seed + 7;
  Network net = build_model(c.model, mc);
  if (!c.in.empty()) {
    if (!load_network(net, c.in)) {
      throw std::runtime_error("bench_serve: failed to read " + c.in);
    }
    return net;
  }
  const std::int64_t full = full_macs(net);
  std::vector<std::int64_t> budgets;
  for (int i = 1; i <= c.subnets; ++i) {
    budgets.push_back(full * i / (c.subnets + 1));
  }
  assign_prefix_subnets(net, solve_prefix_fractions(net, budgets));
  return net;
}

std::vector<Tensor> make_inputs(const Network& net, int n, std::uint64_t seed) {
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Tensor x({1, net.input_channels(), net.input_h(), net.input_w()});
    fill_normal(x, 0.0f, 1.0f, rng);
    inputs.push_back(std::move(x));
  }
  return inputs;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct LoadStats {
  double seconds = 0.0;
  std::vector<double> latency_ms;  ///< submit -> final result
  std::uint64_t misses = 0;
  std::uint64_t rejected = 0;  ///< futures failing (queue-full / admission)
  std::int64_t total_macs = 0;
  double exit_sum = 0.0;
  std::size_t completed = 0;

  void add(const serve::ServedResult& r) {
    latency_ms.push_back(r.final_ms);
    if (r.deadline_missed) ++misses;
    total_macs += r.macs;
    exit_sum += r.exit_subnet;
    ++completed;
  }
  double macs_per_req() const {
    return completed ? static_cast<double>(total_macs) /
                           static_cast<double>(completed)
                     : 0.0;
  }
  void print(const char* label) const {
    std::printf(
        "%-24s %5zu req  %7.1f req/s  p50=%6.2f p95=%6.2f p99=%6.2f ms  "
        "miss=%4.1f%%  mean_exit=%.2f  macs/req=%.0f\n",
        label, completed,
        seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0,
        percentile(latency_ms, 0.50), percentile(latency_ms, 0.95),
        percentile(latency_ms, 0.99),
        completed ? 100.0 * static_cast<double>(misses) /
                        static_cast<double>(completed)
                  : 0.0,
        completed ? exit_sum / static_cast<double>(completed) : 0.0,
        macs_per_req());
  }
};

/// One finished load run, labelled for the BENCH_serve.json report.
/// `occupancy` is serve_pass_rows_total / serve_passes_total for that run's
/// server (mean live rows per ladder pass); 0 when it wasn't sampled.
struct BenchRow {
  std::string label;
  LoadStats stats;
  double occupancy = 0.0;
};

void write_bench_json(const std::vector<BenchRow>& rows, double rec_on_rps,
                      double rec_off_rps, double idle_event_ns) {
  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LoadStats& s = rows[i].stats;
    std::fprintf(
        f,
        "    {\"label\": \"%s\", \"requests\": %zu, \"req_per_s\": %.2f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"miss_rate\": %.4f, \"mean_exit\": %.3f, \"macs_per_req\": %.0f, "
        "\"occupancy\": %.3f, \"rejected\": %llu}%s\n",
        rows[i].label.c_str(), s.completed,
        s.seconds > 0.0 ? static_cast<double>(s.completed) / s.seconds : 0.0,
        percentile(s.latency_ms, 0.50), percentile(s.latency_ms, 0.95),
        percentile(s.latency_ms, 0.99),
        s.completed ? static_cast<double>(s.misses) /
                          static_cast<double>(s.completed)
                    : 0.0,
        s.completed ? s.exit_sum / static_cast<double>(s.completed) : 0.0,
        s.macs_per_req(), rows[i].occupancy,
        static_cast<unsigned long long>(s.rejected),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"flight_overhead\": {\"recorder_on_req_per_s\": "
               "%.2f, \"recorder_off_req_per_s\": %.2f, "
               "\"overhead_pct\": %.2f, \"idle_event_ns\": %.2f}\n}\n",
               rec_on_rps, rec_off_rps,
               rec_off_rps > 0.0 ? 100.0 * (1.0 - rec_on_rps / rec_off_rps)
                                 : 0.0,
               idle_event_ns);
  std::fclose(f);
  std::printf("wrote BENCH_serve.json (%zu runs)\n", rows.size());
}

/// Closed loop: `clients` threads, each submitting its requests serially
/// (a new request only after the previous reply).
LoadStats closed_loop(serve::Server& server, const std::vector<Tensor>& inputs,
                      int clients, double deadline_ms) {
  std::vector<LoadStats> per_client(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  Timer timer;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < inputs.size();
           i += static_cast<std::size_t>(clients)) {
        serve::Request req;
        req.input = inputs[i];  // deep copy — tensors are values
        req.deadline_ms = deadline_ms;
        per_client[static_cast<std::size_t>(t)].add(
            server.serve(std::move(req)));
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadStats all;
  all.seconds = timer.seconds();
  for (const LoadStats& s : per_client) {
    all.latency_ms.insert(all.latency_ms.end(), s.latency_ms.begin(),
                          s.latency_ms.end());
    all.misses += s.misses;
    all.total_macs += s.total_macs;
    all.exit_sum += s.exit_sum;
    all.completed += s.completed;
  }
  return all;
}

/// Open loop: requests arrive on a fixed schedule regardless of completions
/// (interval = 1/rate), then all futures are drained.
LoadStats open_loop(serve::Server& server, const std::vector<Tensor>& inputs,
                    double rate_per_s, double deadline_ms) {
  std::vector<std::future<serve::ServedResult>> futures;
  futures.reserve(inputs.size());
  const double interval_s = rate_per_s > 0.0 ? 1.0 / rate_per_s : 0.0;
  Timer timer;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double due = static_cast<double>(i) * interval_s;
    while (timer.seconds() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    serve::Request req;
    req.input = inputs[i];
    req.deadline_ms = deadline_ms;
    futures.push_back(server.submit(std::move(req)));
  }
  LoadStats all;
  for (auto& f : futures) {
    try {
      all.add(f.get());
    } catch (const std::exception&) {
      // Queue-full / admission rejection: neither a completion nor a miss —
      // tallied separately (the server's own counters agree).
      ++all.rejected;
    }
  }
  all.seconds = timer.seconds();
  return all;
}

int run_load(const ServeBenchConfig& c) {
  const BenchScale scale = bench_scale();
  const int per_client =
      c.requests > 0 ? c.requests : (scale == BenchScale::kQuick ? 16 : 64);
  const int total = per_client * c.clients;
  Network net = make_model(c);
  const std::vector<Tensor> inputs = make_inputs(net, total, c.seed + 101);
  const DeviceModel host = calibrate_device(net, c.subnets);

  std::printf(
      "bench_serve  scale=%s  model=%s subnets=%d workers=%d batch=%d "
      "clients=%d requests=%d\n",
      to_string(scale), c.model.c_str(), c.subnets, c.workers, c.batch,
      c.clients, total);

  // Reuse vs no-reuse at equal exit levels: no deadline / budget / gate, so
  // every request climbs the full ladder and the answers are identical —
  // only the MACs (and therefore time) differ.
  auto make_server = [&](bool reuse) {
    serve::ServeConfig cfg;
    cfg.max_subnet = c.subnets;
    cfg.num_workers = c.workers;
    cfg.max_batch = c.batch;
    cfg.reuse = reuse;
    cfg.device = host;
    return std::make_unique<serve::Server>(net, cfg);
  };
  std::vector<BenchRow> rows;
  double min_thr = 0.0;
  double capacity = 0.0;  ///< closed-loop reuse throughput (req/s)
  for (const bool reuse : {true, false}) {
    auto server = make_server(reuse);
    LoadStats closed = closed_loop(*server, inputs, c.clients, 0.0);
    closed.print(reuse ? "closed-loop reuse" : "closed-loop no-reuse");
    const double thr =
        static_cast<double>(closed.completed) / closed.seconds;
    if (reuse) capacity = thr;
    min_thr = min_thr == 0.0 ? thr : std::min(min_thr, thr);
    rows.push_back(
        {reuse ? "closed_loop_reuse" : "closed_loop_no_reuse", std::move(closed)});
  }
  // One common arrival rate below the slower server's capacity, so the two
  // open-loop runs face identical offered load.
  const double rate = 0.75 * min_thr;
  LoadStats stats[2];
  for (const bool reuse : {true, false}) {
    auto server = make_server(reuse);
    LoadStats open = open_loop(*server, inputs, rate, 0.0);
    open.print(reuse ? "open-loop   reuse" : "open-loop   no-reuse");
    rows.push_back({reuse ? "open_loop_reuse" : "open_loop_no_reuse", open});
    stats[reuse ? 0 : 1] = std::move(open);
  }
  std::printf(
      "summary: macs/req reuse=%.0f no-reuse=%.0f (saving %.1f%%)  "
      "p95 reuse=%.2fms no-reuse=%.2fms\n",
      stats[0].macs_per_req(), stats[1].macs_per_req(),
      stats[1].macs_per_req() > 0.0
          ? 100.0 * (1.0 - stats[0].macs_per_req() / stats[1].macs_per_req())
          : 0.0,
      percentile(stats[0].latency_ms, 0.95),
      percentile(stats[1].latency_ms, 0.95));

  // Step-down under load: a deadline near the ladder's midpoint forces the
  // planner to settle for smaller subnets once queueing eats the slack.
  {
    serve::ServeConfig cfg;
    cfg.max_subnet = c.subnets;
    cfg.num_workers = c.workers;
    cfg.max_batch = c.batch;
    cfg.device = host;
    serve::Server server(net, cfg);
    const double tight =
        server.planner().ladder_ms((c.subnets + 1) / 2, c.batch);
    const double rate =
        1.5 * static_cast<double>(stats[0].completed) / stats[0].seconds;
    LoadStats open = open_loop(server, inputs, rate, tight);
    char label[64];
    std::snprintf(label, sizeof(label), "open-loop tight %.1fms", tight);
    open.print(label);
    server.shutdown();
    std::printf("%s", server.counters().to_string().c_str());
    std::printf("%s\n", server.slo_summary().c_str());
    std::printf("%s\n", server.flight_summary().c_str());
    rows.push_back({"open_loop_tight_deadline", std::move(open)});
  }

  // Overload sweep (ISSUE 9): open loop at 1.25x / 1.5x / 2x the closed-loop
  // reuse capacity with a mid-ladder deadline. In this regime requests still
  // climb 2-3 ladder levels, so batches shed early-halting rows and the
  // survivors re-merge (with each other and with fresh admissions) into full
  // batches. Occupancy = serve_pass_rows_total / serve_passes_total (mean
  // live rows per executed pass). The sweep cycles the input set 4x so each
  // run is long enough for queueing effects to dominate scheduling noise.
  std::vector<Tensor> sweep_inputs;
  sweep_inputs.reserve(inputs.size() * 4);
  for (int rep = 0; rep < 4; ++rep) {
    for (const Tensor& x : inputs) sweep_inputs.push_back(x);
  }
  for (const double mult : {1.25, 1.5, 2.0}) {
    serve::ServeConfig cfg;
    cfg.max_subnet = c.subnets;
    cfg.num_workers = c.workers;
    cfg.max_batch = c.batch;
    cfg.device = host;
    serve::Server server(net, cfg);
    const double tight =
        server.planner().ladder_ms((c.subnets + 1) / 2, c.batch);
    LoadStats open = open_loop(server, sweep_inputs, mult * capacity, tight);
    server.shutdown();
    const double occupancy = server.counters().pass_occupancy();
    char label[64];
    std::snprintf(label, sizeof(label), "overload %.2fx", mult);
    open.print(label);
    std::printf("%-24s occupancy=%.2f rows/pass\n", "", occupancy);
    char jlabel[64];
    std::snprintf(jlabel, sizeof(jlabel), "overload_%.2fx", mult);
    rows.push_back({jlabel, std::move(open), occupancy});
  }

  // Occupancy probe (ISSUE 9): every request submitted at once (deep queue,
  // no deadlines, so the run-queue's urgency override never fires) with
  // per-request MAC budgets spreading the exits over 1..subnets. Rows
  // therefore halt at different levels, and the survivors of different
  // batches re-pack into full same-level passes. Stepping each batch of 4 to
  // completion over a 4-level ladder would average (4+3+2+1)/4 = 2.5 live
  // rows per pass; CI requires at least 3.0 here.
  {
    serve::ServeConfig cfg;
    cfg.max_subnet = c.subnets;
    cfg.num_workers = c.workers;
    cfg.max_batch = c.batch;
    cfg.device = host;
    cfg.queue_capacity = sweep_inputs.size() + 16;
    serve::Server server(net, cfg);
    const serve::LevelCosts& costs = server.planner().costs();
    std::vector<std::future<serve::ServedResult>> futures;
    futures.reserve(sweep_inputs.size());
    Timer timer;
    for (std::size_t i = 0; i < sweep_inputs.size(); ++i) {
      serve::Request req;
      req.input = sweep_inputs[i];
      req.mac_budget =
          costs.stepped_macs_through(1 + static_cast<int>(i) % c.subnets);
      futures.push_back(server.submit(std::move(req)));
    }
    LoadStats s;
    for (auto& f : futures) s.add(f.get());
    s.seconds = timer.seconds();
    server.shutdown();
    const double occupancy = server.counters().pass_occupancy();
    s.print("occupancy probe");
    std::printf("%-24s occupancy=%.2f rows/pass\n", "", occupancy);
    rows.push_back({"occupancy_probe", std::move(s), occupancy});
  }

  // Predictive admission under 2x overload: `off` admits everything and eats
  // the misses, `reject` refuses requests whose predicted queue wait leaves
  // no reachable subnet (fail-fast, the future throws), `degrade` admits
  // them at a reduced target level instead.
  {
    const serve::AdmitPolicy policies[3] = {serve::AdmitPolicy::kOff,
                                            serve::AdmitPolicy::kReject,
                                            serve::AdmitPolicy::kDegrade};
    for (const serve::AdmitPolicy p : policies) {
      serve::ServeConfig cfg;
      cfg.max_subnet = c.subnets;
      cfg.num_workers = c.workers;
      cfg.max_batch = c.batch;
      cfg.device = host;
      cfg.admit = p;
      serve::Server server(net, cfg);
      const double tight =
          server.planner().ladder_ms((c.subnets + 1) / 2, c.batch);
      LoadStats open = open_loop(server, sweep_inputs, 2.0 * capacity, tight);
      server.shutdown();
      const serve::CounterSnapshot snap = server.counters();
      char label[64];
      std::snprintf(label, sizeof(label), "overload 2.0x admit=%s",
                    serve::admit_policy_name(p));
      open.print(label);
      std::printf(
          "%-24s occupancy=%.2f rows/pass  admitted=%llu degraded=%llu "
          "rejected=%llu\n",
          "", snap.pass_occupancy(),
          static_cast<unsigned long long>(snap.admit_accepted),
          static_cast<unsigned long long>(snap.admit_degraded),
          static_cast<unsigned long long>(snap.admit_rejected));
      char jlabel[64];
      std::snprintf(jlabel, sizeof(jlabel), "overload_2.0x_admit_%s",
                    serve::admit_policy_name(p));
      rows.push_back({jlabel, std::move(open), snap.pass_occupancy()});
    }
  }

  // Flight-recorder overhead (ISSUE 8): the same closed-loop load with the
  // recorder enabled (default ring) vs disabled (ring = 0). Request work is
  // milliseconds-scale, so the delta should be indistinguishable from noise
  // — the JSON report keeps the receipts.
  double rec_rps[2] = {0.0, 0.0};
  for (const bool rec_on : {true, false}) {
    serve::ServeConfig cfg;
    cfg.max_subnet = c.subnets;
    cfg.num_workers = c.workers;
    cfg.max_batch = c.batch;
    cfg.device = host;
    cfg.flight.ring = rec_on ? 1024 : 0;
    serve::Server server(net, cfg);
    LoadStats s = closed_loop(server, inputs, c.clients, 0.0);
    const double rps =
        s.seconds > 0.0 ? static_cast<double>(s.completed) / s.seconds : 0.0;
    rec_rps[rec_on ? 0 : 1] = rps;
    std::printf("closed-loop recorder=%-3s %7.1f req/s\n", rec_on ? "on" : "off",
                rps);
    rows.push_back(
        {rec_on ? "closed_loop_recorder_on" : "closed_loop_recorder_off",
         std::move(s)});
    server.shutdown();
  }

  // Idle per-event-site cost: with recording disabled every hook reduces to
  // a null-handle check inside an out-of-line call. This is the price each
  // instrumented code path pays when the recorder is off.
  double idle_event_ns = 0.0;
  {
    obs::FlightRecorder::Config fcfg;
    fcfg.ring = 0;
    fcfg.retain_misses = 0;
    fcfg.retain_stragglers = 0;
    obs::FlightRecorder off(fcfg);
    const obs::FlightHandle h =
        off.begin(0, 0.0, 0.0, 0);  // null: recorder disabled
    const long reps = bench_scale() == BenchScale::kQuick ? 2000000 : 20000000;
    Timer t;
    for (long i = 0; i < reps; ++i) {
      off.event(h, obs::FlightEventKind::kStepEnd, 0.0, i, 0, 0);
    }
    idle_event_ns = t.milliseconds() * 1e6 / static_cast<double>(reps);
    std::printf("flight idle event site: %.2f ns (%ld calls, recorder off)\n",
                idle_event_ns, reps);
  }

  write_bench_json(rows, rec_rps[0], rec_rps[1], idle_event_ns);
  return 0;
}

int run_smoke(const ServeBenchConfig& c, int port, bool send_shutdown) {
  Network net = make_model(c);

  // Self-host when no --port was given: the reference model and the served
  // model are then the same object graph by construction.
  std::unique_ptr<serve::Server> local;
  std::unique_ptr<serve::TcpServer> tcp;
  std::thread tcp_thread;
  if (port == 0) {
    serve::ServeConfig cfg;
    cfg.max_subnet = c.subnets;
    cfg.num_workers = c.workers;
    cfg.max_batch = c.batch;
    cfg.device = calibrate_device(net, c.subnets);
    local = std::make_unique<serve::Server>(net, cfg);
    tcp = std::make_unique<serve::TcpServer>(*local, 0);
    port = tcp->port();
    tcp_thread = std::thread([&] { tcp->run(); });
    send_shutdown = true;
  }

  const int per_client = 6;
  const std::vector<Tensor> inputs =
      make_inputs(net, c.clients * per_client, c.seed + 202);
  // One reference replica per client thread: Network::forward keeps layer
  // scratch state, so concurrent parity checks need their own copies.
  std::vector<Network> refs;
  refs.reserve(static_cast<std::size_t>(c.clients));
  for (int t = 0; t < c.clients; ++t) refs.push_back(net.clone());
  std::atomic<int> parity_fail{0}, io_fail{0}, misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < c.clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        Network& ref = refs[static_cast<std::size_t>(t)];
        serve::TcpClient client(port);
        for (int i = 0; i < per_client; ++i) {
          const Tensor& x = inputs[static_cast<std::size_t>(
              t * per_client + i)];
          serve::WireReply reply;
          if (!client.infer(x, 0.0, 0, reply) || reply.exit_subnet == 0) {
            ++io_fail;
            continue;
          }
          if (reply.deadline_missed) ++misses;
          SubnetContext ctx;
          ctx.subnet_id = static_cast<int>(reply.exit_subnet);
          Tensor direct = ref.forward(x, ctx);
          const bool same =
              static_cast<std::int64_t>(reply.logits.size()) ==
                  direct.numel() &&
              std::memcmp(reply.logits.data(), direct.data(),
                          sizeof(float) *
                              static_cast<std::size_t>(direct.numel())) == 0;
          if (!same) ++parity_fail;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "smoke client %d: %s\n", t, e.what());
        ++io_fail;
      }
    });
  }
  for (auto& t : threads) t.join();

  // Forced deadline misses (ISSUE 8): hopeless deadlines make the planner
  // clamp to level 1 and the first publish still lands late, so the flight
  // recorder retains a postmortem per request — the anytime answer (and
  // logits parity above) is unaffected. The kTimeline dump is then fetched
  // over TCP and written for CI to json-validate.
  int timeline_fail = 0;
  {
    try {
      serve::TcpClient client(port);
      for (int i = 0; i < 4; ++i) {
        serve::WireReply reply;
        if (!client.infer(inputs[static_cast<std::size_t>(i)], 1e-3, 0,
                          reply) ||
            reply.exit_subnet == 0) {
          ++io_fail;
        }
      }
      std::string tl;
      if (!client.timeline(tl) ||
          tl.find("\"postmortems\"") == std::string::npos) {
        ++timeline_fail;
      } else {
        if (local != nullptr && tl.find("deadline_miss") == std::string::npos) {
          ++timeline_fail;  // self-hosted: the forced misses must be retained
        }
        if (std::FILE* f = std::fopen("BENCH_timeline.json", "w")) {
          std::fwrite(tl.data(), 1, tl.size(), f);
          std::fputc('\n', f);
          std::fclose(f);
          std::printf("wrote BENCH_timeline.json (%zu bytes)\n", tl.size());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "smoke timeline: %s\n", e.what());
      ++timeline_fail;
    }
  }

  if (send_shutdown) {
    try {
      serve::TcpClient(port).shutdown_server();
    } catch (const std::exception&) {
      ++io_fail;
    }
  }
  if (tcp_thread.joinable()) tcp_thread.join();
  if (local) {
    local->shutdown();
    std::printf("%s", local->counters().to_string().c_str());
    std::printf("%s\n", local->slo_summary().c_str());
    std::printf("%s\n", local->flight_summary().c_str());
  }

  const int total = c.clients * per_client;
  const bool ok = parity_fail.load() == 0 && io_fail.load() == 0 &&
                  timeline_fail == 0;
  std::printf("smoke: parity=%s requests=%d io_errors=%d timeline_errors=%d "
              "miss_rate=%.2f\n",
              ok ? "ok" : "FAIL", total, io_fail.load(), timeline_fail,
              static_cast<double>(misses.load()) / total);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace stepping::bench

int main(int argc, char** argv) {
  using namespace stepping;
  using namespace stepping::bench;
  const std::vector<std::string> known = {
      "model",   "classes", "expansion", "width",    "subnets",
      "seed",    "in",      "workers",   "batch",    "clients",
      "requests", "port",   "smoke",     "shutdown"};
  CliArgs args(argc, argv, known);
  if (!args.ok()) {
    for (const auto& e : args.errors()) std::fprintf(stderr, "%s\n", e.c_str());
    return 2;
  }
  ServeBenchConfig c;
  c.model = args.get("model", c.model);
  c.classes = static_cast<int>(args.get_int("classes", c.classes));
  c.expansion = args.get_double("expansion", c.expansion);
  c.width = args.get_double("width", c.width);
  c.subnets = static_cast<int>(args.get_int("subnets", c.subnets));
  c.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  c.in = args.get("in");
  c.workers = static_cast<int>(args.get_int("workers", c.workers));
  c.batch = static_cast<int>(args.get_int("batch", c.batch));
  c.clients = static_cast<int>(args.get_int("clients", c.clients));
  c.requests = static_cast<int>(args.get_int("requests", 0));
  try {
    if (args.has("smoke")) {
      return run_smoke(c, static_cast<int>(args.get_int("port", 0)),
                       args.has("shutdown"));
    }
    return run_load(c);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
}
