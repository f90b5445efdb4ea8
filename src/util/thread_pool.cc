#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/env.h"
#include "util/log.h"

namespace stepping {

namespace {

/// > 0 while the current thread is executing a parallel_for chunk; nested
/// parallel_for calls run inline to avoid deadlocking on a busy pool.
thread_local int tls_parallel_depth = 0;

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

/// Published pointer for the lock-free fast path of ThreadPool::global().
/// Lazy creation races when two threads hit global() concurrently (e.g. two
/// serve workers on first inference), so creation is mutex-guarded and the
/// result is release-published here.
std::atomic<ThreadPool*>& global_published() {
  static std::atomic<ThreadPool*> ptr{nullptr};
  return ptr;
}

std::mutex& global_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(0, threads - 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  obs::trace_thread_name("pool.worker");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    ++tls_parallel_depth;
    {
      STEPPING_TRACE_SCOPE_CAT("pool", "pool.task");
      task();  // never throws: chunks capture their own exceptions
    }
    --tls_parallel_depth;
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const int parts =
      static_cast<int>(std::min<std::int64_t>(static_cast<std::int64_t>(size()), n));
  if (parts <= 1 || tls_parallel_depth > 0) {
    body(begin, end);
    return;
  }

  // Completion state shared with the queued chunks. Lives on this stack
  // frame; the caller does not return until remaining == 0, after which no
  // worker touches it again (the counter decrement is the last access).
  struct Job {
    std::mutex m;
    std::condition_variable cv;
    int remaining;
    std::exception_ptr error;
  } job;
  job.remaining = parts - 1;

  const std::int64_t base = n / parts;
  const std::int64_t rem = n % parts;
  const auto chunk_bounds = [&](int c) {
    const std::int64_t b =
        begin + c * base + std::min<std::int64_t>(c, rem);
    return std::pair<std::int64_t, std::int64_t>(b, b + base + (c < rem ? 1 : 0));
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int c = 1; c < parts; ++c) {
      const auto [cb, ce] = chunk_bounds(c);
      queue_.emplace_back([&job, &body, cb, ce] {
        std::exception_ptr err;
        try {
          body(cb, ce);
        } catch (...) {
          err = std::current_exception();
        }
        std::lock_guard<std::mutex> jl(job.m);
        if (err && !job.error) job.error = err;
        if (--job.remaining == 0) job.cv.notify_one();
      });
    }
  }
  cv_.notify_all();

  // The calling thread owns chunk 0.
  const auto [cb0, ce0] = chunk_bounds(0);
  ++tls_parallel_depth;
  try {
    body(cb0, ce0);
  } catch (...) {
    std::lock_guard<std::mutex> jl(job.m);
    if (!job.error) job.error = std::current_exception();
  }
  --tls_parallel_depth;

  std::unique_lock<std::mutex> lock(job.m);
  job.cv.wait(lock, [&job] { return job.remaining == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::global() {
  ThreadPool* fast = global_published().load(std::memory_order_acquire);
  if (fast) return *fast;
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(default_threads());
    global_published().store(slot.get(), std::memory_order_release);
  }
  return *slot;
}

void ThreadPool::set_global_threads(int threads) {
  // Replacing the pool while other threads run parallel work on it is not
  // supported (callers use this at startup / between test phases); the
  // published pointer is cleared first so stragglers at worst re-lock.
  std::lock_guard<std::mutex> lock(global_mutex());
  global_published().store(nullptr, std::memory_order_release);
  global_slot() = std::make_unique<ThreadPool>(threads);
  global_published().store(global_slot().get(), std::memory_order_release);
}

int env_thread_count(const char* name, int fallback) {
  const long env = env_or_int(name, 0);
  if (env <= 0) return fallback;
  if (env > kMaxThreads) {
    LOG_WARN << name << "=" << env << " is above the maximum of "
             << kMaxThreads << "; using " << kMaxThreads;
    return kMaxThreads;
  }
  return static_cast<int>(env);
}

int ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback =
      hw > 0 ? static_cast<int>(std::min<unsigned>(hw, kMaxThreads)) : 1;
  return env_thread_count("STEPPING_THREADS", fallback);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

void parallel_for_cost(
    std::int64_t begin, std::int64_t end, std::int64_t cost_per_item,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (cost_per_item <= 0 || n * cost_per_item < kParallelGrainOps) {
    body(begin, end);
    return;
  }
  ThreadPool::global().parallel_for(begin, end, body);
}

}  // namespace stepping
