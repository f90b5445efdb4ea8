// Shared plumbing of the benchmark program: command line, sample statistics,
// the run result (the JSON line run.py checks), registry counter
// deltas, and the in-memory span recorder of traced runs.
//
// Everything here observes the program from outside: it times calls into
// public functions and reads public counters. Nothing in src/ is changed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// "L<level>": the per-level suffix of metric and span names.
inline std::string level_tag(int level) {
  std::string s = "L";
  s += std::to_string(level);
  return s;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where a traced run writes its Chrome trace
};

/// Parses --workload --seed --seconds --trace [--out-dir]; throws on error.
Args parse_args(int argc, char** argv);

/// Percentile with the rule the benchmark reports by: a percentile p is
/// only defined when at least ten samples lie beyond it. Nearest-rank on
/// the sorted samples.
struct Sampled {
  double value = 0.0;
  std::size_t count = 0;
  bool defined = false;
};
Sampled percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Latency samples in a buffer allocated and touched once, so a run's peak
/// memory does not grow with the number of items it completes. Past
/// kCapacity samples the oldest are overwritten.
class SampleRing {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  SampleRing() : buf_(kCapacity) {}
  void push(double v) { buf_[n_++ % kCapacity] = v; }
  std::vector<double> values() const {
    return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(std::min(n_, kCapacity))};
  }

 private:
  std::vector<double> buf_;
  std::size_t n_ = 0;
};

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Value of a counter or gauge in the process-wide metrics registry.
std::uint64_t global_counter(const char* name);

/// The result line and the human-readable report above it.
class Report {
 public:
  /// A metric the run measured. Names and units must match BENCHMARK.json;
  /// run.py checks that every name it lists, and no other, is present.
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing percentile: fails the run when the percentile has fewer than
  /// ten samples beyond it, so no under-sampled tail is ever reported.
  void percentile_metric(const std::string& name, const Sampled& s,
                         const std::string& unit);
  /// Outcome accounting: every operation attempted, and those that failed,
  /// were refused, or produced output that did not match its reference.
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n, const std::string& why);
  /// A check whose failure fails the run (self-checks of a traced run).
  void require(bool ok, const std::string& what);

  /// Prints the error-rate line and the JSON result line. Returns the
  /// process exit code: 0 only when no required check failed.
  int finish() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// Spans of a traced run: name, start, end, parent span and item id, kept
/// in memory and written at the end as Chrome-trace JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::int64_t item = -1;
    int tid = 0;
  };
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  /// Opens a span under the innermost open one; returns its id (-1 when off).
  int begin(const std::string& name, std::int64_t item = -1);
  void end(int id);
  /// A span with given times, e.g. from ServedResult timestamps.
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, std::int64_t item, int tid);
  /// Prints each span name's total and self time (span time minus its
  /// direct children's), largest self time first.
  void print_self_times(std::size_t top) const;
  /// Writes {"traceEvents": [...]} to `path`. Returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::int64_t item = -1)
      : t_(t), id_(t.begin(name, item)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Process-wide counters both workloads move, snapshotted at construction;
/// report() emits their change since as tensor.packcache_hit_ratio,
/// tensor.gemm_packs and util.arena_grows.
class SharedCounters {
 public:
  SharedCounters();
  void report(Report& rep) const;

 private:
  std::uint64_t hits_, misses_, packs_, grows_;
};

/// The end-to-end timing metrics both workloads report, from per-item
/// first/final answer times: p90 (gated), and p05, p50 and throughput
/// (printed only).
///
/// The host's cores are shared with other tenants: on a 4-vCPU KVM guest
/// (Xeon, Sapphire Rapids) a one-thread VGG-16 climb runs either
/// uncontended (~45 ms) or about 1.7x slower, in windows of a few hundred
/// milliseconds per vCPU, and the contended share drifts over minutes; at
/// times whole 30 s runs are contended. A percentile p of a run lands in
/// the fast mode when more than p of its items were uncontended, so it
/// flips between the modes whenever that share crosses p from run to run.
/// The median did (41-45 % IQR across runs), and so did the fast tail p05
/// once the host got busier (31 % IQR over ten VGG-16 ladder runs, against
/// 9.6 % for p90). p90 stays in the contended mode unless nine tenths of a
/// run were uncontended. Throughput flips like the median: for one caller it
/// is 1 / mean latency, for a closed loop in-flight / mean latency.
void report_timings(Report& rep, const std::vector<double>& first_ms,
                    const std::vector<double>& final_ms, std::size_t completions,
                    double seconds);

/// Prints the traced phase's p50 and p90 timings minus the untraced phase's.
void print_trace_overhead(const std::vector<double>& first_ms,
                          const std::vector<double>& final_ms,
                          const std::vector<double>& traced_first_ms,
                          const std::vector<double>& traced_final_ms);

/// Prints the run record: host, ISA tier, thread counts, build and seed.
void print_run_record(const Args& args, int kernel_threads, int worker_threads);

/// Median of `reps` timed calls of a set-up function, in seconds. Each
/// call builds the workload's state from scratch; the last one is kept.
/// The previous state is released before the next set-up starts, so the
/// run's peak memory holds one state, not two.
template <typename State, typename Fn>
double timed_setups(int reps, State& keep, Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    keep = State();
    const auto t0 = Clock::now();
    keep = setup();
    s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return median(s);
}

}  // namespace perfbench
