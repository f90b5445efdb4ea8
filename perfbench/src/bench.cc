#include "bench.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/build_info.h"
#include "obs/metrics.h"
#include "tensor/gemm_isa.h"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") throw std::runtime_error("--trace takes 0 or 1");
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

Sampled percentile(std::vector<double> v, double p) {
  Sampled s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  s.value = v[idx];
  // The tail a low percentile describes lies below it, a high one's above.
  s.defined = (p < 0.5 ? idx : v.size() - 1 - idx) >= 10;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void report_timings(Report& rep, const std::vector<double>& first_ms,
                    const std::vector<double>& final_ms, std::size_t completions,
                    double seconds) {
  rep.percentile_metric("first_ms.p90", percentile(first_ms, 0.90), "ms");
  rep.percentile_metric("final_ms.p90", percentile(final_ms, 0.90), "ms");
  std::printf("  not gated (see bench.h):");
  for (const auto& [name, v] : {std::pair{"first_ms", &first_ms}, {"final_ms", &final_ms}}) {
    for (const double p : {0.05, 0.50}) {
      const Sampled s = percentile(*v, p);
      if (s.defined) {
        std::printf(" %s.p%02.0f %.4f ms (n=%zu),", name, p * 100, s.value, s.count);
      } else {
        std::printf(" %s.p%02.0f undefined (n=%zu),", name, p * 100, s.count);
      }
    }
  }
  std::printf(" throughput_per_s %.4f 1/s\n", static_cast<double>(completions) / seconds);
}

void print_trace_overhead(const std::vector<double>& first_ms,
                          const std::vector<double>& final_ms,
                          const std::vector<double>& traced_first_ms,
                          const std::vector<double>& traced_final_ms) {
  std::printf("trace overhead (traced - untraced):");
  for (const double p : {0.50, 0.90}) {
    std::printf(" first_ms.p%02.0f %+.4f ms, final_ms.p%02.0f %+.4f ms;", p * 100,
                percentile(traced_first_ms, p).value - percentile(first_ms, p).value,
                p * 100,
                percentile(traced_final_ms, p).value - percentile(final_ms, p).value);
  }
  std::printf("\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t global_counter(const char* name) {
  return stepping::obs::Registry::global().counter(name).value();
}

SharedCounters::SharedCounters()
    : hits_(global_counter("stepping_packcache_hits_total")),
      misses_(global_counter("stepping_packcache_misses_total")),
      packs_(global_counter("stepping_gemm_packs_total")),
      grows_(global_counter("stepping_arena_grows_total")) {}

void SharedCounters::report(Report& rep) const {
  const auto hits = static_cast<double>(global_counter("stepping_packcache_hits_total") - hits_);
  const auto misses =
      static_cast<double>(global_counter("stepping_packcache_misses_total") - misses_);
  // 0 when the phase made no cache lookups (batch-1 convs lower to
  // gemm_rows_bias, which packs no weights); the count is printed.
  std::printf("pack-cache lookups in the traced phase: %.0f\n", hits + misses);
  rep.metric("tensor.packcache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  rep.metric("tensor.gemm_packs",
             static_cast<double>(global_counter("stepping_gemm_packs_total") - packs_),
             "count");
  rep.metric("util.arena_grows",
             static_cast<double>(global_counter("stepping_arena_grows_total") - grows_),
             "count");
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    problems_.push_back("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
  std::printf("  %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::percentile_metric(const std::string& name, const Sampled& s,
                               const std::string& unit) {
  if (!s.defined) {
    problems_.push_back(name + ": fewer than ten of " +
                        std::to_string(s.count) + " samples beyond it");
  }
  metrics_[name] = {s.value, unit};
  std::printf("  %-34s %14.6f %s (n=%zu)\n", name.c_str(), s.value,
              unit.c_str(), s.count);
}

void Report::failed(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::printf("FAILED %llu: %s\n", static_cast<unsigned long long>(n),
              why.c_str());
}

void Report::require(bool ok, const std::string& what) {
  std::printf("check %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) problems_.push_back(what);
}

int Report::finish() const {
  std::printf("error_rate %.6f (failed %llu of %llu attempted)\n",
              attempted_ ? static_cast<double>(failed_) /
                               static_cast<double>(attempted_)
                         : 0.0,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& p : problems_) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (!problems_.empty() || attempted_ == 0) {
    std::fflush(stdout);
    return 1;
  }
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

int Tracer::begin(const std::string& name, std::int64_t item) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.start_us = us(Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.item = item;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = us(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int parent, std::int64_t item,
                int tid) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.start_us = us(start);
  s.end_us = us(end);
  s.parent = parent;
  s.item = item;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::print_self_times(std::size_t top) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& [total, self] = by_name[s.name];
    total += (s.end_us - s.start_us) / 1e3;
    self += (s.end_us - s.start_us - child_us[i]) / 1e3;
  }
  std::vector<std::pair<std::string, std::pair<double, double>>> rows(
      by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.second > b.second.second;
  });
  std::printf("span self time (top %zu of %zu names):\n", std::min(top, rows.size()),
              rows.size());
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    std::printf("  %-36s total %12.3f ms  self %12.3f ms\n", rows[i].first.c_str(),
                rows[i].second.first, rows[i].second.second);
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"item\": %lld}}%s\n",
                  s.name.c_str(), s.tid, s.start_us, s.end_us - s.start_us, i,
                  s.parent, static_cast<long long>(s.item),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

namespace {

/// The CPU's brand string from CPUID leaves 0x80000002-4 (read from the
/// processor, not from a file outside the checkout).
std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

}  // namespace

void print_run_record(const Args& args, int kernel_threads,
                      int worker_threads) {
  const std::string cpu = cpu_brand();
  utsname u{};
  uname(&u);
  std::printf(
      "run: workload=%s seed=%llu seconds=%g trace=%d\n"
      "run: nproc=%u cpu=\"%s\" kernel=%s %s\n"
      "run: isa_tier=%s kernel_threads=%d worker_threads=%d build=%s "
      "version=%s git_sha=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      cpu.c_str(), u.sysname, u.release,
      stepping::isa_tier_name(stepping::isa_tier()), kernel_threads,
      worker_threads, PERFBENCH_BUILD_TYPE, stepping::obs::build_version(),
      stepping::obs::build_git_sha());
}

}  // namespace perfbench
