// Fixed-size thread pool with a deterministic chunked parallel_for.
//
// Design constraints (DESIGN.md §6, ISSUE 1):
//  * No work stealing and no dynamic chunk assignment: parallel_for splits
//    [begin, end) into at most `size()` contiguous chunks, so every index is
//    owned by exactly one participant and every output row is written by one
//    thread only. Because each chunk executes the same per-index code in the
//    same order as the serial loop, results are bitwise identical to a serial
//    run for *any* thread count — SteppingNet's exact-reuse invariants
//    (subnet-i activations identical before and after stepping up) survive
//    parallel execution unchanged.
//  * Serial fallback when the pool size is <= 1, the range is a single
//    chunk, or the caller is already inside a parallel region (nested
//    parallel_for runs inline; no deadlock, no oversubscription).
//  * Exceptions thrown by a chunk are captured and the first one is
//    rethrown on the calling thread after all chunks finish.
//
// The global pool is sized from the STEPPING_THREADS environment variable,
// falling back to std::thread::hardware_concurrency(), and never above
// kMaxThreads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stepping {

/// Upper bound on a thread or worker count taken from outside the program
/// (STEPPING_THREADS, STEPPING_SERVE_WORKERS, `steppingnet serve --workers`).
inline constexpr int kMaxThreads = 256;

/// Thread or worker count from the env var `name`: unset, non-numeric or
/// <= 0 gives `fallback`; a larger value than kMaxThreads, one too large
/// for an int included, is cut to kMaxThreads with a warning.
int env_thread_count(const char* name, int fallback);

class ThreadPool {
 public:
  /// A pool of total concurrency `threads` (the calling thread counts as
  /// one participant, so `threads - 1` workers are spawned). Values <= 1
  /// create no workers: every parallel_for runs serially on the caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread); always >= 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Invokes `body(chunk_begin, chunk_end)` over a static partition of
  /// [begin, end) into at most size() contiguous chunks. The calling thread
  /// executes the first chunk and blocks until all chunks are done.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Process-wide pool used by the tensor kernels. Lazily constructed with
  /// default_threads() on first use.
  static ThreadPool& global();

  /// Replaces the global pool with one of total concurrency `threads`
  /// (bench/test knob; callers must not hold kernels in flight).
  static void set_global_threads(int threads);

  /// STEPPING_THREADS env var if set, otherwise hardware_concurrency();
  /// either way at most kMaxThreads (env_thread_count).
  static int default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// parallel_for on the global pool.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// Minimum number of scalar operations worth scheduling across threads;
/// ranges cheaper than this run serially to avoid synchronization overhead
/// on tiny kernels (the cut-off only affects speed, never results).
inline constexpr std::int64_t kParallelGrainOps = 32 * 1024;

/// parallel_for that runs serially when the total work
/// (end - begin) * cost_per_item falls below kParallelGrainOps.
void parallel_for_cost(std::int64_t begin, std::int64_t end,
                       std::int64_t cost_per_item,
                       const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace stepping
