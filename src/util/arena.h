// Per-thread scratch arena for kernel workspaces (ISSUE 4).
//
// The GEMM packing buffers and the im2col/col2im workspaces used to be
// allocated fresh on every call (a Tensor per conv forward). The arena
// replaces those with a bump allocator that is
//  * per-thread: Arena::this_thread() returns a thread_local instance, so
//    serve workers and pool threads never contend or share pointers;
//  * scoped: ArenaScope opens a LIFO region; every allocation made through
//    the scope is released (pointer-rewind, no free()) when it closes.
//    Scopes nest — a conv layer holds its im2col workspace open while the
//    GEMM underneath opens its own scope for the packing buffer;
//  * high-water sized: the backing memory is never returned between calls.
//    When a scope overflows the current block a larger one is chained, and
//    once the outermost scope closes the chain is consolidated into a
//    single block sized to the high-water mark — steady state is one
//    malloc for the lifetime of the thread, zero allocations per call
//    (asserted by the conv allocation-count tests).
//
// Determinism: the arena hands out uninitialized memory; callers fill every
// byte they read (im2col writes the full column matrix, the GEMM packer
// zero-pads panel tails, the implicit conv zeroes the slack its last vector
// lanes read past its padded copy). Reused memory therefore never leaks
// state between calls into results.
//
// Instrumented: block growth bumps stepping_arena_grows_total and raises
// the stepping_arena_bytes high-water gauge in the global metrics registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stepping {

class Arena {
 public:
  /// Alignment of every returned pointer (cache line / SIMD friendly).
  static constexpr std::size_t kAlign = 64;

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Total bytes of backing storage currently held.
  std::size_t capacity() const { return capacity_; }

  /// Number of heap allocations made over the arena's lifetime. Stable
  /// grow_count() across calls == the workspace is being reused.
  std::uint64_t grow_count() const { return grow_count_; }

  /// Peak concurrently-live bytes ever requested (what consolidation
  /// sizes the single steady-state block to).
  std::size_t high_water() const { return high_water_; }

  /// Currently open scopes.
  int depth() const { return depth_; }

  /// The calling thread's arena (thread_local; lives until thread exit).
  static Arena& this_thread();

 private:
  friend class ArenaScope;

  struct Block {
    char* raw = nullptr;    ///< unaligned allocation (delete[] this)
    char* base = nullptr;   ///< kAlign-aligned start
    std::size_t size = 0;   ///< usable bytes from base
    std::size_t used = 0;
  };

  void* alloc(std::size_t bytes);
  void push_block(std::size_t min_size);
  /// At depth 0 with more than one block: replace the chain with a single
  /// block of at least high_water() bytes.
  void consolidate();

  std::vector<Block> blocks_;
  std::size_t capacity_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t grow_count_ = 0;
  int depth_ = 0;
};

/// RAII allocation region on an Arena. Scopes must close in LIFO order
/// (guaranteed by stack discipline: one scope per C++ scope).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena = Arena::this_thread());
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// Uninitialized, kAlign-aligned, valid until this scope closes.
  void* alloc(std::size_t bytes) { return arena_.alloc(bytes); }
  float* alloc_floats(std::size_t n) {
    return static_cast<float*>(alloc(n * sizeof(float)));
  }

 private:
  Arena& arena_;
  std::size_t saved_block_;  ///< blocks_.size() at open
  std::size_t saved_used_;   ///< used bytes of the then-top block
  std::size_t saved_live_;
};

}  // namespace stepping
