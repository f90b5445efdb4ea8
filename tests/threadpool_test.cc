// ThreadPool / parallel_for semantics and the bitwise-determinism contract
// of the parallel GEMM family: for any thread count, every kernel must
// produce output identical byte-for-byte to a serial run (ISSUE 1; the
// exact-reuse property tests in properties_test.cc depend on this).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

TEST(ThreadPool, SizeZeroAndOneFallBackToSerial) {
  for (const int threads : {0, 1}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    std::int64_t covered = 0;
    pool.parallel_for(0, 100, [&](std::int64_t b, std::int64_t e) {
      // Serial fallback: one chunk, on the calling thread.
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
      covered += e - b;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(covered, 100);
  }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::int64_t n : {0, 1, 2, 3, 4, 5, 7, 64, 1000, 4099}) {
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    pool.parallel_for(0, n, [&](std::int64_t b, std::int64_t e) {
      // Chunks are disjoint, so unsynchronized writes to distinct indices
      // are race-free by construction.
      for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, NonZeroBeginIsRespected) {
  ThreadPool pool(3);
  std::vector<int> hits(50, 0);
  pool.parallel_for(10, 40, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)], (i >= 10 && i < 40) ? 1 : 0);
  }
}

TEST(ThreadPool, ChunkCountNeverExceedsPoolSizeOrRange) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  pool.parallel_for(0, 1000, [&](std::int64_t, std::int64_t) {
    chunks.fetch_add(1);
  });
  EXPECT_LE(chunks.load(), 4);
  chunks = 0;
  pool.parallel_for(0, 2, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(e - b, 1);
    chunks.fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 2);
}

TEST(ThreadPool, ExceptionInTaskPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::int64_t b, std::int64_t) {
                          if (b == 0) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);
  // A throwing chunk on a worker (not the caller) must also surface.
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::int64_t b, std::int64_t) {
                          if (b != 0) throw std::runtime_error("worker failed");
                        }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<std::int64_t> covered{0};
  pool.parallel_for(0, 64, [&](std::int64_t b, std::int64_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 64);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(0, 10, [&](std::int64_t ib, std::int64_t ie) {
        total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, GlobalPoolResizes) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().size(), 1);
  ThreadPool::set_global_threads(ThreadPool::default_threads());
}

// A count from STEPPING_THREADS is bounded: however large, it asks for at
// most kMaxThreads threads, and none wraps through the int conversion.
// Only the resolver runs; no pool of that size is built.
TEST(ThreadPool, DefaultThreadsBoundsTheEnvCount) {
  const char* saved = std::getenv("STEPPING_THREADS");
  const std::string saved_val = saved ? saved : "";
  ::unsetenv("STEPPING_THREADS");
  const int hw_default = ThreadPool::default_threads();
  EXPECT_GE(hw_default, 1);
  EXPECT_LE(hw_default, kMaxThreads);
  const struct {
    const char* value;
    int want;
  } cases[] = {{"0", hw_default},     {"-5", hw_default},
               {"3", 3},              {"256", 256},
               {"257", 256},          {"100000", 256},
               {"2147483648", 256},   {"4294967297", 256},
               {"99999999999999999999999", 256}};
  for (const auto& c : cases) {
    ::setenv("STEPPING_THREADS", c.value, 1);
    EXPECT_EQ(ThreadPool::default_threads(), c.want) << c.value;
  }
  if (saved) {
    ::setenv("STEPPING_THREADS", saved_val.c_str(), 1);
  } else {
    ::unsetenv("STEPPING_THREADS");
  }
}

// ---------------------------------------------------------------------------
// Bitwise parity: every parallel kernel vs its serial execution.
// ---------------------------------------------------------------------------

class ParallelKernelParity : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }

  static Tensor random_tensor(std::vector<int> shape, Rng& rng) {
    Tensor t(std::move(shape));
    fill_normal(t, 0.0f, 1.0f, rng);
    return t;
  }

  static std::vector<unsigned char> random_mask(int n, Rng& rng) {
    std::vector<unsigned char> mask(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      mask[static_cast<std::size_t>(i)] = rng.uniform() < 0.6 ? 1 : 0;
    }
    return mask;
  }

  static void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                                   const char* what) {
    ASSERT_EQ(a.shape(), b.shape()) << what;
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                             sizeof(float) * static_cast<std::size_t>(a.numel())))
        << what << ": parallel output differs from serial";
  }

  /// Runs `kernel` (writing into its Tensor argument) once per thread count
  /// and requires byte-identical outputs. Thread count 1 is the serial
  /// reference; 2..5 cover uneven chunk boundaries.
  template <typename Fn>
  void check_parity(const char* what, const Tensor& out_template, Fn kernel) {
    Tensor ref = out_template;
    ThreadPool::set_global_threads(1);
    kernel(ref);
    for (const int threads : {2, 3, 4, 5}) {
      Tensor out = out_template;
      ThreadPool::set_global_threads(threads);
      kernel(out);
      expect_bitwise_equal(ref, out,
                           (std::string(what) + " @" + std::to_string(threads) +
                            " threads")
                               .c_str());
    }
  }
};

TEST_F(ParallelKernelParity, GemmFamilyMatchesSerialBitwise) {
  Rng rng(42);
  // Shapes straddle the parallel grain cut-off; the larger ones exceed it
  // by a wide margin so the pool genuinely splits rows across threads.
  const int shapes[][3] = {
      {1, 8, 8}, {3, 17, 5}, {37, 64, 40}, {65, 48, 33}, {128, 96, 64}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    const Tensor at = random_tensor({k, m}, rng);
    const Tensor bt = random_tensor({n, k}, rng);
    const Tensor c0 = random_tensor({m, n}, rng);  // accumulate seed
    const auto row_mask = random_mask(m, rng);
    const auto col_mask = random_mask(n, rng);
    const auto k_mask = random_mask(k, rng);
    const Tensor row_bias = random_tensor({m}, rng);
    const Tensor col_bias = random_tensor({n}, rng);

    check_parity("gemm", c0,
                 [&](Tensor& c) { gemm(a, b, c, /*accumulate=*/true); });
    check_parity("gemm_tn", c0,
                 [&](Tensor& c) { gemm_tn(at, b, c, /*accumulate=*/true); });
    check_parity("gemm_nt", c0,
                 [&](Tensor& c) { gemm_nt(a, bt, c, /*accumulate=*/true); });
    check_parity("gemm_rows_bias", c0, [&](Tensor& c) {
      gemm_rows_bias(a, b, c, row_mask.data(), row_bias.data(), true);
    });
    check_parity("gemm_nt_cols_bias", c0, [&](Tensor& c) {
      gemm_nt_cols_bias(a, bt, c, col_mask.data(), col_bias.data(), true);
    });
    check_parity("gemm_nt_rows_acc", c0, [&](Tensor& c) {
      gemm_nt_rows_acc(a, bt, c, row_mask.data());
    });
    check_parity("gemm_tn_rows", c0,
                 [&](Tensor& c) { gemm_tn_rows(at, b, c, k_mask.data()); });
  }
}

TEST_F(ParallelKernelParity, MaskedRowsAreLeftUntouchedUnderParallelism) {
  Rng rng(7);
  const int m = 64, k = 48, n = 40;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  const auto mask = random_mask(m, rng);
  const Tensor sentinel = random_tensor({m, n}, rng);
  const Tensor bias = random_tensor({m}, rng);
  ThreadPool::set_global_threads(4);
  Tensor c = sentinel;
  gemm_rows_bias(a, b, c, mask.data(), bias.data(), /*relu=*/false);
  for (int i = 0; i < m; ++i) {
    if (mask[static_cast<std::size_t>(i)]) continue;
    ASSERT_EQ(0, std::memcmp(c.data() + static_cast<std::size_t>(i) * n,
                             sentinel.data() + static_cast<std::size_t>(i) * n,
                             sizeof(float) * static_cast<std::size_t>(n)))
        << "inactive row " << i << " was modified";
  }
}

TEST_F(ParallelKernelParity, Im2colMatchesSerialBitwise) {
  Rng rng(11);
  const Conv2dGeometry geoms[] = {
      {3, 8, 8, 4, 3, 1, 1},     // tiny (below grain: serial either way)
      {16, 32, 32, 32, 3, 1, 1},  // conv-layer scale
      {8, 19, 23, 8, 5, 2, 2},    // odd sizes, stride 2
  };
  for (const Conv2dGeometry& g : geoms) {
    Tensor x = random_tensor({g.in_c, g.in_h, g.in_w}, rng);
    const Tensor cols_template({g.patch(), g.out_h() * g.out_w()});
    check_parity("im2col", cols_template,
                 [&](Tensor& cols) { im2col(x.data(), g, cols.data()); });
  }
}

TEST_F(ParallelKernelParity, Col2imMatchesSerialBitwise) {
  Rng rng(17);
  // col2im is a scatter-add: overlapping patches accumulate, but only within
  // one input channel, so the channel partition must reproduce the serial
  // accumulation order exactly (ISSUE 2 satellite). Geometries cover heavy
  // overlap (stride < kernel), padding, and a cost large enough that the
  // pool genuinely splits the channels across threads.
  const Conv2dGeometry geoms[] = {
      //             in_c in_h in_w out_c k  s  p
      {3, 8, 8, 4, 3, 1, 1},      // below the grain: serial fallback path
      {16, 32, 32, 8, 5, 1, 2},   // ~410k ops: splits across threads
      {24, 16, 16, 8, 3, 1, 0},   // channel count > thread count
      {9, 19, 23, 8, 5, 2, 2},    // odd sizes, stride 2
  };
  for (const Conv2dGeometry& g : geoms) {
    const Tensor cols = random_tensor({g.patch(), g.out_h() * g.out_w()}, rng);
    const Tensor x_template({g.in_c, g.in_h, g.in_w});
    check_parity("col2im", x_template,
                 [&](Tensor& x) { col2im(cols.data(), g, x.data()); });
  }
}

TEST_F(ParallelKernelParity, SoftmaxAndReluMatchSerialBitwise) {
  Rng rng(13);
  const Tensor logits = random_tensor({256, 100}, rng);
  check_parity("softmax_rows", Tensor({256, 100}),
               [&](Tensor& probs) { softmax_rows(logits, probs); });

  const Tensor x = random_tensor({2, 16, 32, 32}, rng);
  check_parity("relu_forward", Tensor(x.shape()), [&](Tensor& y) {
    std::vector<unsigned char> mask;
    relu_forward(x, y, &mask);
  });
  std::vector<unsigned char> mask;
  Tensor y0(x.shape());
  relu_forward(x, y0, &mask);
  check_parity("relu_backward", Tensor(x.shape()),
               [&](Tensor& gx) { relu_backward(x, mask, gx); });
}

}  // namespace
}  // namespace stepping
