#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/ops.h"

namespace stepping {
namespace {

// Reference O(n^3) matmul for cross-checking the tuned kernels.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  Tensor t(std::move(shape));
  fill_normal(t, 0.0f, 1.0f, rng);
  return t;
}

TEST(Gemm, MatchesReference) {
  Rng rng(1);
  const Tensor a = random_tensor({7, 5}, rng);
  const Tensor b = random_tensor({5, 9}, rng);
  Tensor c({7, 9});
  gemm(a, b, c);
  const Tensor ref = ref_matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f);
  }
}

TEST(Gemm, AccumulateAddsOntoC) {
  Rng rng(2);
  const Tensor a = random_tensor({3, 4}, rng);
  const Tensor b = random_tensor({4, 2}, rng);
  Tensor c({3, 2});
  c.fill(1.0f);
  gemm(a, b, c, /*accumulate=*/true);
  const Tensor ref = ref_matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i] + 1.0f, 1e-4f);
  }
}

TEST(GemmTn, MatchesReference) {
  Rng rng(3);
  const Tensor at = random_tensor({5, 7}, rng);  // K x M
  const Tensor b = random_tensor({5, 4}, rng);   // K x N
  Tensor c({7, 4});
  gemm_tn(at, b, c);
  // Reference: transpose at.
  Tensor a({7, 5});
  for (int i = 0; i < 7; ++i) {
    for (int p = 0; p < 5; ++p) a.at(i, p) = at.at(p, i);
  }
  const Tensor ref = ref_matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f);
  }
}

TEST(GemmNt, MatchesReference) {
  Rng rng(4);
  const Tensor a = random_tensor({6, 5}, rng);
  const Tensor bt = random_tensor({3, 5}, rng);  // N x K
  Tensor c({6, 3});
  gemm_nt(a, bt, c);
  Tensor b({5, 3});
  for (int p = 0; p < 5; ++p) {
    for (int j = 0; j < 3; ++j) b.at(p, j) = bt.at(j, p);
  }
  const Tensor ref = ref_matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f);
  }
}

// Direct (naive) convolution used to validate the im2col+gemm path.
Tensor ref_conv(const Tensor& x, const Tensor& w, const Conv2dGeometry& g) {
  const int n = x.dim(0);
  Tensor y({n, g.out_c, g.out_h(), g.out_w()});
  for (int in = 0; in < n; ++in) {
    for (int oc = 0; oc < g.out_c; ++oc) {
      for (int oy = 0; oy < g.out_h(); ++oy) {
        for (int ox = 0; ox < g.out_w(); ++ox) {
          double acc = 0.0;
          for (int ic = 0; ic < g.in_c; ++ic) {
            for (int ky = 0; ky < g.kernel; ++ky) {
              for (int kx = 0; kx < g.kernel; ++kx) {
                const int iy = oy * g.stride + ky - g.pad;
                const int ix = ox * g.stride + kx - g.pad;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
                const float wv =
                    w.at(oc, (ic * g.kernel + ky) * g.kernel + kx);
                acc += static_cast<double>(x.at(in, ic, iy, ix)) * wv;
              }
            }
          }
          y.at(in, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

TEST(Im2col, ConvViaGemmMatchesDirectConvolution) {
  Rng rng(5);
  Conv2dGeometry g{3, 8, 8, 4, 3, 1, 1};
  const Tensor x = random_tensor({2, 3, 8, 8}, rng);
  const Tensor w = random_tensor({4, g.patch()}, rng);

  const int spatial = g.out_h() * g.out_w();
  Tensor y({2, 4, g.out_h(), g.out_w()});
  Tensor cols({g.patch(), spatial});
  for (int i = 0; i < 2; ++i) {
    im2col(x.data() + i * 3 * 8 * 8, g, cols.data());
    Tensor yi({4, spatial});
    gemm(w, cols, yi);
    std::copy(yi.data(), yi.data() + yi.numel(),
              y.data() + static_cast<std::int64_t>(i) * 4 * spatial);
  }
  const Tensor ref = ref_conv(x, w, g);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-4f);
  }
}

TEST(Im2col, StridedAndPaddedGeometry) {
  Rng rng(6);
  Conv2dGeometry g{2, 7, 7, 3, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 4);
  const Tensor x = random_tensor({1, 2, 7, 7}, rng);
  const Tensor w = random_tensor({3, g.patch()}, rng);
  Tensor cols({g.patch(), g.out_h() * g.out_w()});
  im2col(x.data(), g, cols.data());
  Tensor yi({3, g.out_h() * g.out_w()});
  gemm(w, cols, yi);
  const Tensor ref = ref_conv(x, w, g);
  for (std::int64_t i = 0; i < yi.numel(); ++i) {
    EXPECT_NEAR(yi[i], ref[i], 1e-4f);
  }
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), c> == <x, col2im(c)> for all x, c — the defining property of
  // the adjoint, which is exactly what the backward pass needs.
  Rng rng(7);
  Conv2dGeometry g{2, 6, 6, 1, 3, 1, 1};
  const int spatial = g.out_h() * g.out_w();
  const Tensor x = random_tensor({2, 6, 6}, rng);
  const Tensor c = random_tensor({g.patch(), spatial}, rng);
  Tensor xc({g.patch(), spatial});
  im2col(x.data(), g, xc.data());
  Tensor xi({2, 6, 6});
  col2im(c.data(), g, xi.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < xc.numel(); ++i) lhs += static_cast<double>(xc[i]) * c[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * xi[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(MaxPool, ForwardPicksMaxima) {
  Tensor x({1, 1, 4, 4});
  for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y;
  std::vector<int> argmax;
  maxpool_forward(x, 2, y, &argmax);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
  EXPECT_EQ(y[2], 13.0f);
  EXPECT_EQ(y[3], 15.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor x({1, 1, 4, 4});
  for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y;
  std::vector<int> argmax;
  maxpool_forward(x, 2, y, &argmax);
  Tensor gy({1, 1, 2, 2});
  gy.fill(1.0f);
  Tensor gx({1, 1, 4, 4});
  maxpool_backward(gy, argmax, gx);
  EXPECT_EQ(gx[5], 1.0f);
  EXPECT_EQ(gx[15], 1.0f);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx.sum(), 4.0);
}

TEST(MaxPool, NegativeValuesHandled) {
  Tensor x({1, 1, 2, 2});
  x[0] = -4.0f;
  x[1] = -1.0f;
  x[2] = -3.0f;
  x[3] = -2.0f;
  Tensor y;
  std::vector<int> argmax;
  maxpool_forward(x, 2, y, &argmax);
  EXPECT_EQ(y[0], -1.0f);
}

// The inference pool scan (maxpool_plane, shared by MaxPool2d and the fused
// conv stage's epilogue) against a naive branchy scan, at widths 1-17 so
// every vector tail runs, with NaN, ±Inf and ±0 at every window position.
float naive_window_max(const float* x, std::int64_t ldx, int r, int c, int k) {
  float best = -std::numeric_limits<float>::infinity();
  for (int dy = 0; dy < k; ++dy) {
    for (int dx = 0; dx < k; ++dx) {
      const float v = x[(static_cast<std::int64_t>(r) * k + dy) * ldx + c * k + dx];
      if (v > best) best = v;
    }
  }
  return best;
}

TEST(MaxPoolPlane, MatchesNaiveScanWithNonFiniteAndSignedZeros) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, inf, -inf, 0.0f, -0.0f};
  const float mix[] = {nan, inf, -inf, 0.0f, -0.0f, 1.0f, -1.0f};
  Rng rng(21);
  for (const int k : {2, 3}) {
    for (int ow = 1; ow <= 17; ++ow) {
      const int oh = 3;
      const std::int64_t ldx = static_cast<std::int64_t>(ow) * k + 2;
      const std::int64_t ldy = ow + 1;
      std::vector<float> x(static_cast<std::size_t>(oh * k * ldx));
      std::vector<float> y(static_cast<std::size_t>(oh * ldy));
      std::vector<float> want(y.size());
      const auto check = [&](const std::string& what) {
        std::fill(y.begin(), y.end(), 7.0f);  // slack columns stay untouched
        std::fill(want.begin(), want.end(), 7.0f);
        maxpool_plane(x.data(), ldx, oh, ow, k, y.data(), ldy);
        for (int r = 0; r < oh; ++r) {
          for (int c = 0; c < ow; ++c) {
            want[static_cast<std::size_t>(r * ldy + c)] =
                naive_window_max(x.data(), ldx, r, c, k);
          }
        }
        EXPECT_EQ(0, std::memcmp(y.data(), want.data(), sizeof(float) * y.size()))
            << "k=" << k << " ow=" << ow << " " << what;
      };
      for (const float sp : specials) {
        for (int dy = 0; dy < k; ++dy) {
          for (int dx = 0; dx < k; ++dx) {
            for (float& v : x) v = static_cast<float>(rng.normal());
            for (int r = 0; r < oh; ++r) {
              for (int c = 0; c < ow; ++c) {
                x[static_cast<std::size_t>((r * k + dy) * ldx + c * k + dx)] = sp;
              }
            }
            check("special " + std::to_string(sp) + " at (" + std::to_string(dy) +
                  "," + std::to_string(dx) + ")");
          }
        }
      }
      // Every window drawn from the specials and ±1: all-NaN windows, ±0
      // ties, Inf against NaN, in every order.
      for (int rep = 0; rep < 16; ++rep) {
        for (float& v : x) v = mix[static_cast<int>(rng.uniform(0.0, 7.0 - 1e-9))];
        check("mixed rep " + std::to_string(rep));
      }
    }
  }
}

TEST(MaxPoolPlane, InferenceAndTrainingScansAgree) {
  Rng rng(22);
  for (const int k : {2, 3}) {
    Tensor x({2, 3, 6 * k, 7 * k});
    fill_normal(x, 0.0f, 1.0f, rng);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::int64_t i = 0; i < x.numel(); i += 5) x[i] = nan;
    for (std::int64_t i = 2; i < x.numel(); i += 7) x[i] = -0.0f;
    Tensor y_inf, y_train;
    std::vector<int> argmax;
    maxpool_forward(x, k, y_inf);
    maxpool_forward(x, k, y_train, &argmax);
    ASSERT_EQ(y_inf.shape(), y_train.shape());
    EXPECT_EQ(0, std::memcmp(y_inf.data(), y_train.data(),
                             sizeof(float) * static_cast<std::size_t>(y_inf.numel())))
        << "k=" << k;
  }
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(8);
  Tensor logits = random_tensor({4, 10}, rng);
  Tensor probs;
  softmax_rows(logits, probs);
  for (int i = 0; i < 4; ++i) {
    double s = 0.0;
    for (int j = 0; j < 10; ++j) s += probs.at(i, j);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1000.0f, 999.0f});
  Tensor probs;
  softmax_rows(logits, probs);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_NEAR(probs[0], probs[1], 1e-6f);
  EXPECT_LT(probs[2], probs[0]);
}

TEST(Relu, ForwardBackwardConsistent) {
  Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y;
  std::vector<unsigned char> mask;
  relu_forward(x, y, &mask);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor gy({4}, {1.0f, 1.0f, 1.0f, 1.0f});
  Tensor gx;
  relu_backward(gy, mask, gx);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 0.0f);  // x == 0 is not strictly positive
  EXPECT_EQ(gx[2], 1.0f);
}

TEST(GlobalAvgPool, ForwardAveragesPlanes) {
  Tensor x({1, 2, 2, 2});
  for (int i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  Tensor y;
  global_avgpool_forward(x, y);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 2}));
  EXPECT_NEAR(y[0], 1.5f, 1e-6f);
  EXPECT_NEAR(y[1], 5.5f, 1e-6f);
}

TEST(Fills, KaimingStddevApproximatelyCorrect) {
  Rng rng(9);
  Tensor t({200, 50});
  fill_kaiming_normal(t, 50, rng);
  double s = 0.0, s2 = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    s += t[i];
    s2 += static_cast<double>(t[i]) * t[i];
  }
  const double mean = s / t.numel();
  const double var = s2 / t.numel() - mean * mean;
  EXPECT_NEAR(std::sqrt(var), std::sqrt(2.0 / 50.0), 0.01);
}

}  // namespace
}  // namespace stepping
