// conv2d_implicit's multi-row kernel (KernelTable::axpy_rows).
//
// conv2d_implicit sends runs of flagged rows whose compacted terms match —
// the same nonzero-weight positions — through axpy_rows, KernelTable::rows
// rows per call; remainders and rows with other patterns take the
// single-row axpy. Each output element keeps one accumulator lane with its
// terms in ascending order, so both kernels give every row the explicit
// route's bits. Pinned here by memcmp against im2col + gemm_rows_bias for
// 1..9 flagged rows, rows whose pattern differs (a pruned weight, an
// exact-zero weight), inputs holding NaN, ±Inf and -0, kernel {1, 3, 5} x
// stride {1, 2} x batch {1, 3}, on every compiled ISA tier at 1 and 3
// threads (scalar and sse have no multi-row kernel: every row runs
// singly there). The row counters show that both kernels ran, and at one
// thread that each row went where the grouping rule sends it.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "tensor/gemm_isa.h"
#include "tensor/gemm_kernel.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr int kUnits = 12;

const obs::Counter& multi_rows() {
  return obs::Registry::global().counter("stepping_conv_multirow_rows_total");
}
const obs::Counter& single_rows() {
  return obs::Registry::global().counter("stepping_conv_single_rows_total");
}

class ConvMultiRow : public ::testing::Test {
 protected:
  void TearDown() override {
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

/// Rows the grouping rule sends through axpy_rows when the flagged rows,
/// in order, have the patterns `pattern` (equal ids = equal terms) and one
/// call takes `rpc` rows: runs of equal patterns, cut into whole calls.
/// None on a tier without the kernel (rpc 1).
int expected_multi_rows(const std::vector<int>& pattern, int rpc) {
  if (rpc < 2) return 0;
  int multi = 0;
  std::size_t l = 0;
  while (l < pattern.size()) {
    std::size_t run = 1;
    while (run < static_cast<std::size_t>(rpc) && l + run < pattern.size() &&
           pattern[l + run] == pattern[l]) {
      ++run;
    }
    if (run == static_cast<std::size_t>(rpc)) multi += rpc;
    l += run;
  }
  return multi;
}

struct Case {
  int kernel, stride, batch, flagged;
};

/// Runs one case at the active tier and thread count; returns the flagged
/// rows' pattern ids.
std::vector<int> run_case(const Case& c, unsigned seed, const std::string& tag) {
  const int pad = c.kernel / 2;
  const Conv2dGeometry g{/*in_c=*/3, /*in_h=*/9, /*in_w=*/11, kUnits, c.kernel,
                         c.stride, pad};
  const int patch = g.patch();
  const int spatial = g.out_h() * g.out_w();
  Rng rng(seed);
  Tensor x({c.batch, g.in_c, g.in_h, g.in_w});
  fill_normal(x, 0.0f, 1.0f, rng);
  for (int i = 0; i < c.batch; ++i) {
    x.at(i, 0, 0, 0) = kNaN;
    x.at(i, 1, 4, 5 + i) = kInf;
    x.at(i, 2, g.in_h - 1, g.in_w - 1) = -kInf;
    for (int col = 2; col < 7; ++col) x.at(i, 1, 6, col) = -0.0f;
  }
  Tensor w({kUnits, patch});
  fill_normal(w, 0.0f, 1.0f, rng);
  // Row 4 has a pruned (zeroed) weight and row 7 an exact-zero one, at
  // different positions: each breaks the run it would have joined.
  w.at(4, patch / 2) = 0.0f;
  w.at(7, 0) = -0.0f;
  std::vector<unsigned char> rows(kUnits, 0);
  std::vector<int> pattern;
  // Flag `flagged` rows from row 1 on, so flagged runs start mid-list.
  for (int u = 1; u <= c.flagged; ++u) {
    rows[static_cast<std::size_t>(u)] = 1;
    pattern.push_back(u == 4 || u == 7 ? u : 0);
  }
  Tensor bias({kUnits});
  fill_normal(bias, 0.0f, 0.5f, rng);
  std::vector<int> channels(static_cast<std::size_t>(g.in_c));
  for (int ch = 0; ch < g.in_c; ++ch) channels[static_cast<std::size_t>(ch)] = ch;

  // Unflagged rows keep a sentinel on both routes.
  Tensor got({c.batch, kUnits, g.out_h(), g.out_w()});
  got.fill(-7.0f);
  Tensor want = got;
  conv2d_implicit(x.data(), c.batch, g, channels, w.data(), rows.data(),
                  bias.data(), ConvEpilogue{},
                  SpatialRegion::full(g.out_h(), g.out_w()), got.data());
  std::vector<float> cols(static_cast<std::size_t>(patch) * spatial);
  std::vector<float> yi(static_cast<std::size_t>(kUnits) * spatial);
  for (int i = 0; i < c.batch; ++i) {
    im2col(x.data() + static_cast<std::int64_t>(i) * g.in_c * g.in_h * g.in_w, g,
           cols.data());
    std::fill(yi.begin(), yi.end(), 0.0f);
    gemm_rows_bias(w.data(), cols.data(), yi.data(), kUnits, patch, spatial,
                   rows.data(), bias.data(), /*relu=*/false);
    for (int u = 0; u < kUnits; ++u) {
      if (!rows[static_cast<std::size_t>(u)]) continue;
      std::memcpy(want.data() + (static_cast<std::int64_t>(i) * kUnits + u) * spatial,
                  yi.data() + static_cast<std::size_t>(u) * spatial,
                  sizeof(float) * static_cast<std::size_t>(spatial));
    }
  }
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<std::size_t>(got.numel())))
      << tag;
  return pattern;
}

TEST_F(ConvMultiRow, MatchesExplicitRouteOnEveryTierAndThreadCount) {
  std::uint64_t multi_total = 0, single_total = 0;
  bool any_multi_tier = false;
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (!isa_tier_compiled(tier)) continue;
    set_isa_tier(tier);
    const int rpc = microkernel::active_table().rows;
    any_multi_tier = any_multi_tier || rpc > 1;
    for (const int threads : {1, 3}) {
      ThreadPool::set_global_threads(threads);
      unsigned seed = 1;
      for (const int kernel : {1, 3, 5}) {
        for (const int stride : {1, 2}) {
          for (const int batch : {1, 3}) {
            for (int flagged = 1; flagged <= 9; ++flagged) {
              const std::string tag =
                  std::string(isa_tier_name(tier)) + " threads=" +
                  std::to_string(threads) + " k=" + std::to_string(kernel) +
                  " s=" + std::to_string(stride) + " batch=" +
                  std::to_string(batch) + " rows=" + std::to_string(flagged);
              const std::uint64_t m0 = multi_rows().value();
              const std::uint64_t s0 = single_rows().value();
              const std::vector<int> pattern =
                  run_case({kernel, stride, batch, flagged}, seed++, tag);
              const std::uint64_t multi = multi_rows().value() - m0;
              const std::uint64_t single = single_rows().value() - s0;
              EXPECT_EQ(multi + single, static_cast<std::uint64_t>(flagged)) << tag;
              if (threads == 1) {
                EXPECT_EQ(multi, static_cast<std::uint64_t>(
                                     expected_multi_rows(pattern, rpc)))
                    << tag;
              }
              multi_total += multi;
              single_total += single;
            }
          }
        }
      }
    }
  }
  // Both kernels ran, wherever a tier here has the multi-row one.
  if (any_multi_tier) {
    EXPECT_GT(multi_total, 0u);
  }
  EXPECT_GT(single_total, 0u);
}

}  // namespace
}  // namespace stepping
