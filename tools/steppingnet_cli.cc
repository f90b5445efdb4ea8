// steppingnet — command-line front end for the library.
//
// Subcommands:
//   train    run the full pipeline on a synthetic dataset and save the model
//   eval     load a saved model and report per-subnet accuracy + MACs
//   info     load a saved model and print the structure report
//   latency  map a saved model's subnets to latency estimates per device
//   serve    serve a saved model over loopback TCP with anytime inference
//
// Examples:
//   steppingnet train --model lenet3c1l --out model.bin --epochs 5
//   steppingnet eval --model lenet3c1l --in model.bin
//   steppingnet info --model lenet3c1l --in model.bin
//   steppingnet latency --model lenet3c1l --in model.bin --deadline-ms 2.5
//   steppingnet serve --model lenet3c1l --in model.bin --port 17707 --workers 2
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include <algorithm>

#include "core/latency.h"
#include "core/macs.h"
#include "quant/calibration.h"
#include "quant/policy.h"
#include "core/report.h"
#include "core/serialize.h"
#include "core/stepping_net.h"
#include "nn/trainer.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace stepping;

namespace {

constexpr const char* kUsage =
    R"(usage: steppingnet <train|eval|info|latency|serve> [flags]

common flags:
  --model NAME        lenet3c1l | lenet5 | vgg16      (default lenet3c1l)
  --classes N         output classes                   (default 10)
  --expansion R       width expansion ratio            (default 1.8)
  --width W           width multiplier                 (default 0.25)
  --subnets N         number of subnets                (default 4)
  --budgets a,b,c,d   MAC budget fractions             (default 0.1,0.3,0.5,0.85)

train:
  --out PATH          save the trained model here      (required)
  --epochs N          pretraining epochs               (default 5)
  --distill-epochs N  distillation epochs              (default 2)
  --train-per-class N synthetic training images/class  (default 100)
  --seed S            RNG seed                         (default 42)

eval / info / latency / serve:
  --in PATH           load the model from here         (required)
  --deadline-ms MS    (latency) report the largest subnet meeting MS
                      (serve) default per-request deadline, 0 = none
  --precision P       (eval) fp32 | int8               (default fp32)
                      int8 prints a per-subnet fp32-vs-int8 table

serve:
  --port P            TCP port on 127.0.0.1, 0 = ephemeral (default 0)
  --workers N         worker threads, 0..256, 0 = STEPPING_SERVE_WORKERS/1 (default 0)
  --batch B           micro-batch size per worker       (default 4)
  --confidence T      early-exit top-1 gate, 0 = off    (default 0)
  --mac-budget M      default per-request MAC budget, 0 = unlimited
  --no-reuse          disable incremental reuse (baseline mode)
  --admit P           off | reject | degrade: predictive admission control at
                      enqueue (default: STEPPING_ADMIT, off). reject refuses
                      requests whose deadline is already hopeless at the
                      predicted queue wait; degrade also caps the rest to the
                      reachable subnet level
  --metrics-dump-sec N  print a metrics JSON snapshot every N seconds
                        (the last partial window flushes on shutdown, then a
                        final cumulative snapshot prints)
  --slo-objective H     deadline-hit-rate objective in (0,1) (default 0.99)
  --postmortem-dump PATH  on shutdown, write the flight recorder's postmortem
                          JSON (deadline misses + worst stragglers, each with
                          its causal timeline and predicted-vs-actual
                          per-level costs) to PATH

observability (env): STEPPING_TRACE=<path> writes a Chrome/Perfetto trace
(STEPPING_TRACE_FLUSH_SEC=N rewrites it every N seconds while running),
STEPPING_LOG=<level> controls diagnostics, STEPPING_FLIGHT_RING sizes the
per-request flight recorder (0 disables); see the README env-var table.
)";

struct CommonConfig {
  std::string model;
  int classes;
  double expansion;
  double width;
  int subnets;
  std::vector<double> budgets;
  std::uint64_t seed;
};

std::vector<double> parse_budgets(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    out.push_back(std::strtod(tok.c_str(), nullptr));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

CommonConfig common_config(const CliArgs& args) {
  CommonConfig c;
  c.model = args.get("model", "lenet3c1l");
  c.classes = static_cast<int>(args.get_int("classes", 10));
  c.expansion = args.get_double("expansion", 1.8);
  c.width = args.get_double("width", 0.25);
  c.subnets = static_cast<int>(args.get_int("subnets", 4));
  c.budgets = parse_budgets(args.get("budgets", "0.1,0.3,0.5,0.85"));
  c.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  return c;
}

Network build(const CommonConfig& c, double expansion) {
  ModelConfig mc;
  mc.classes = c.classes;
  mc.expansion = expansion;
  mc.width_mult = c.width;
  mc.seed = c.seed + 7;
  return build_model(c.model, mc);
}

DataSplit make_data(const CommonConfig& c, int train_per_class,
                    int test_per_class) {
  SynthConfig cfg = c.classes > 10 ? synth_cifar100(train_per_class, test_per_class)
                                   : synth_cifar10(train_per_class, test_per_class);
  cfg.seed = c.seed;
  return make_synthetic(cfg);
}

int cmd_train(const CliArgs& args) {
  const CommonConfig c = common_config(args);
  const std::string out = args.get("out");
  if (out.empty()) {
    LOG_ERROR << "train: --out PATH is required";
    return 2;
  }
  if (static_cast<int>(c.budgets.size()) != c.subnets) {
    LOG_ERROR << "train: --budgets arity must equal --subnets";
    return 2;
  }
  const DataSplit data =
      make_data(c, static_cast<int>(args.get_int("train-per-class", 100)), 30);

  Network reference = build(c, 1.0);
  SteppingConfig cfg;
  cfg.num_subnets = c.subnets;
  cfg.mac_budget_frac = c.budgets;
  cfg.reference_macs = full_macs(reference);
  cfg.batches_per_iter = 3;
  cfg.max_iters = 50;

  SteppingNet sn(build(c, c.expansion), cfg, c.seed);
  std::printf("pretraining...\n");
  sn.pretrain(data.train, static_cast<int>(args.get_int("epochs", 5)));
  std::printf("constructing subnets...\n");
  const ConstructionReport rep = sn.construct(data.train);
  std::printf("construction: %d iterations, budgets met: %s\n", rep.iterations,
              rep.budgets_met ? "yes" : "no");
  std::printf("distilling...\n");
  sn.distill(data.train, static_cast<int>(args.get_int("distill-epochs", 2)));

  Table t({"subnet", "test acc", "MACs / M_t"});
  for (int i = 1; i <= c.subnets; ++i) {
    t.add_row({std::to_string(i), Table::fmt_pct(sn.accuracy(data.test, i)),
               Table::fmt_pct(sn.mac_fraction(i))});
  }
  t.print("\nResults:");

  if (!save_network(sn.network(), out)) {
    LOG_ERROR << "train: failed to write " << out;
    return 1;
  }
  std::printf("\nmodel saved to %s\n", out.c_str());
  return 0;
}

/// Load flow shared by eval/info/latency. Returns nonzero on failure.
int load_model(const CliArgs& args, const CommonConfig& c, Network& net) {
  const std::string in = args.get("in");
  if (in.empty()) {
    LOG_ERROR << "--in PATH is required";
    return 2;
  }
  net = build(c, c.expansion);
  try {
    if (!load_network(net, in)) {
      LOG_ERROR << "failed to read " << in;
      return 1;
    }
  } catch (const std::exception& e) {
    LOG_ERROR << "load failed: " << e.what()
              << " (the --model/--width/--expansion flags must match the "
                 "values used at training time)";
    return 1;
  }
  return 0;
}

int cmd_eval(const CliArgs& args) {
  const CommonConfig c = common_config(args);
  Network net;
  if (const int rc = load_model(args, c, net)) return rc;
  quant::Precision precision = quant::Precision::kFp32;
  const std::string p = args.get("precision", "fp32");
  if (!quant::parse_precision(p, &precision)) {
    LOG_ERROR << "--precision must be fp32 or int8 (got \"" << p << "\")";
    return 2;
  }
  // Same generator call as training (the per-class counts position the RNG
  // stream, so the test set only matches train-time when they agree).
  const DataSplit data =
      make_data(c, static_cast<int>(args.get_int("train-per-class", 100)), 30);

  if (precision == quant::Precision::kFp32) {
    Table t({"subnet", "test acc", "MACs"});
    for (int i = 1; i <= c.subnets; ++i) {
      const double acc = dataset_accuracy(
          data.test, 64, [&](const Tensor& x, const std::vector<int>& y) {
            return eval_batch(net, x, y, i);
          });
      t.add_row({std::to_string(i), Table::fmt_pct(acc),
                 std::to_string(subnet_macs(net, i))});
    }
    t.print("Per-subnet evaluation (synthetic test set):");
    return 0;
  }

  // Int8 comparison: calibrate activation ranges on a train slice, then
  // score every subnet level in both precisions side by side.
  const int calib_n = std::min(data.train.size(), 256);
  Tensor calib_x;
  std::vector<int> calib_y;
  data.train.batch(0, calib_n, calib_x, calib_y);
  const auto table = calibrate_int8(net, calib_x, 64, c.subnets);
  std::printf("calibrated %zu (layer, level) ranges on %d train images\n",
              table->size(), calib_n);

  Table t({"subnet", "fp32 acc", "int8 acc", "delta pp", "MACs"});
  for (int i = 1; i <= c.subnets; ++i) {
    const double fp32_acc = dataset_accuracy(
        data.test, 64, [&](const Tensor& x, const std::vector<int>& y) {
          return eval_batch(net, x, y, i);
        });
    SubnetContext ctx;
    ctx.subnet_id = i;
    ctx.num_subnets = c.subnets;
    ctx.precision = quant::Precision::kInt8;
    ctx.calibration = table.get();
    const double int8_acc = dataset_accuracy(
        data.test, 64, [&](const Tensor& x, const std::vector<int>& y) {
          return eval_batch(net, x, y, ctx);
        });
    t.add_row({std::to_string(i), Table::fmt_pct(fp32_acc),
               Table::fmt_pct(int8_acc),
               Table::fmt((fp32_acc - int8_acc) * 100.0, 2),
               std::to_string(subnet_macs(net, i))});
  }
  t.print("Per-subnet fp32 vs int8 evaluation (synthetic test set):");
  return 0;
}

int cmd_info(const CliArgs& args) {
  const CommonConfig c = common_config(args);
  Network net;
  if (const int rc = load_model(args, c, net)) return rc;
  const NetworkReport report = build_report(net, c.subnets);
  std::printf("%s", report.to_string().c_str());
  return 0;
}

int cmd_latency(const CliArgs& args) {
  const CommonConfig c = common_config(args);
  Network net;
  if (const int rc = load_model(args, c, net)) return rc;

  const DeviceModel devices[] = {device_mcu(), device_mobile_cpu(),
                                 device_mobile_npu(),
                                 calibrate_device(net, c.subnets)};
  Table t({"device", "s1 ms", "s2 ms", "s3 ms", "s4 ms"});
  for (const DeviceModel& dev : devices) {
    const auto lat = subnet_latencies_ms(net, c.subnets, dev);
    std::vector<std::string> row = {dev.name};
    for (const double ms : lat) row.push_back(Table::fmt(ms, 3));
    row.resize(5, "-");
    t.add_row(row);
  }
  t.print("Estimated per-subnet latency:");

  const double deadline = args.get_double("deadline-ms", 0.0);
  if (deadline > 0.0) {
    const DeviceModel host = calibrate_device(net, c.subnets);
    const int best = largest_subnet_within(net, c.subnets, host, deadline);
    if (best == 0) {
      std::printf("\nno subnet meets %.3f ms on this host\n", deadline);
    } else {
      std::printf("\nlargest subnet within %.3f ms on this host: subnet %d\n",
                  deadline, best);
    }
  }
  return 0;
}

// SIGINT routing for `serve`: the handler only requests the accept loop to
// exit; counters are dumped by the normal post-run() path.
serve::TcpServer* g_tcp_server = nullptr;

void handle_sigint(int) {
  if (g_tcp_server != nullptr) g_tcp_server->stop();
}

int cmd_serve(const CliArgs& args) {
  if (args.has("precision")) {
    LOG_ERROR << "--precision is an eval flag; serve always serves fp32";
    return 2;
  }
  const long workers = args.get_int("workers", 0);
  if (workers < 0 || workers > kMaxThreads) {
    LOG_ERROR << "--workers must be 0.." << kMaxThreads << " (got "
              << workers << ")";
    return 2;
  }
  const CommonConfig c = common_config(args);
  Network net;
  if (const int rc = load_model(args, c, net)) return rc;

  serve::ServeConfig cfg;
  cfg.max_subnet = c.subnets;
  cfg.num_workers = static_cast<int>(workers);
  cfg.max_batch = static_cast<int>(args.get_int("batch", 4));
  cfg.confidence_threshold = args.get_double("confidence", 0.0);
  cfg.default_mac_budget = args.get_int("mac-budget", 0);
  cfg.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  cfg.reuse = !args.has("no-reuse");
  cfg.slo_objective = args.get_double("slo-objective", 0.99);
  if (args.has("admit")) {
    const std::string a = args.get("admit", "off");
    if (!serve::parse_admit_policy(a, &cfg.admit)) {
      LOG_ERROR << "--admit must be off, reject or degrade (got \"" << a
                << "\")";
      return 2;
    }
  }
  cfg.device = calibrate_device(net, c.subnets);

  serve::Server server(net, cfg);
  serve::TcpServer tcp(server, static_cast<int>(args.get_int("port", 0)));
  g_tcp_server = &tcp;
  std::signal(SIGINT, handle_sigint);
  std::printf(
      "serving %s on 127.0.0.1:%d (%d workers, batch %d, %s, admit %s)\n",
      args.get("in").c_str(), tcp.port(), server.config().num_workers,
      server.config().max_batch,
      cfg.reuse ? "incremental reuse" : "no-reuse baseline",
      serve::admit_policy_name(server.config().admit));
  std::fflush(stdout);

  // Optional periodic metrics dump. The dumper sleeps on a condition
  // variable so shutdown never waits out a full period. Histogram stats in
  // each dump are windowed to the period just elapsed (current-load
  // p50/p95/p99, not lifetime aggregates); the final dump after shutdown
  // stays cumulative.
  const long dump_sec = args.get_int("metrics-dump-sec", 0);
  std::mutex dump_mu;
  std::condition_variable dump_cv;
  bool dump_stop = false;
  // Shared with the final flush below: whatever accumulated since the last
  // periodic dump is printed on shutdown instead of being discarded (the
  // dumper thread is joined before the flush, so no concurrent use).
  obs::Registry::Window window;
  std::thread dumper;
  if (dump_sec > 0) {
    dumper = std::thread([&] {
      std::unique_lock<std::mutex> lock(dump_mu);
      for (;;) {
        if (dump_cv.wait_for(lock, std::chrono::seconds(dump_sec),
                             [&] { return dump_stop; })) {
          return;
        }
        std::printf("metrics %s\n",
                    server.metrics_json_windowed(window).c_str());
        std::fflush(stdout);
      }
    });
  }

  tcp.run();  // returns on SIGINT or a kShutdown frame
  g_tcp_server = nullptr;
  if (dumper.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dump_mu);
      dump_stop = true;
    }
    dump_cv.notify_all();
    dumper.join();
  }
  server.shutdown();
  if (dump_sec > 0) {
    // Flush the last partial window before the cumulative snapshot.
    std::printf("metrics %s\n", server.metrics_json_windowed(window).c_str());
  }
  std::printf("%s", server.counters().to_string().c_str());
  std::printf("%s\n", server.slo_summary().c_str());
  std::printf("%s\n", server.flight_summary().c_str());
  std::printf("metrics %s\n", server.metrics_json().c_str());

  const std::string pm_path = args.get("postmortem-dump", "");
  if (!pm_path.empty()) {
    const std::string json = server.postmortems_json();
    std::FILE* f = std::fopen(pm_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "serve: cannot write postmortem dump to %s\n",
                   pm_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("postmortems written to %s\n", pm_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "model",   "classes",        "expansion",       "width",
      "subnets", "budgets",        "out",             "epochs",
      "in",      "distill-epochs", "train-per-class", "seed",
      "deadline-ms", "port",       "workers",         "batch",
      "confidence",  "mac-budget", "no-reuse",        "metrics-dump-sec",
      "precision",   "slo-objective", "postmortem-dump",
      "admit"};
  CliArgs args(argc, argv, known);
  if (!args.ok()) {
    for (const auto& e : args.errors()) std::fprintf(stderr, "%s\n", e.c_str());
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string cmd = args.positional().front();
  if (cmd == "train") return cmd_train(args);
  if (cmd == "eval") return cmd_eval(args);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "latency") return cmd_latency(args);
  if (cmd == "serve") return cmd_serve(args);
  std::fprintf(stderr, "unknown command: %s\n%s", cmd.c_str(), kUsage);
  return 2;
}
