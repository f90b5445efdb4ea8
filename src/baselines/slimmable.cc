#include "baselines/slimmable.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "data/loader.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace stepping {

namespace {

int prefix_count(int units, double f) {
  const int c = static_cast<int>(std::ceil(f * units));
  return std::clamp(c, 1, units);
}

}  // namespace

// ---------------------------------------------------------------------------
// Layer implementations
// ---------------------------------------------------------------------------

struct SlimmableNet::LayerImpl {
  virtual ~LayerImpl() = default;
  virtual Tensor forward(const Tensor& x, int sub, bool training) = 0;
  virtual Tensor backward(const Tensor& grad_y, int sub) = 0;
  virtual void collect_params(int sub, std::vector<Param*>& out) {
    (void)sub;
    (void)out;
  }
  virtual std::int64_t macs(int sub) const {
    (void)sub;
    return 0;
  }
};

namespace {

using LayerImpl = SlimmableNet::LayerImpl;

/// Conv + switchable BN + ReLU, prefix-sliced per switch.
struct SlimConvBlock final : LayerImpl {
  Conv2dGeometry geom;
  std::vector<int> in_active, out_active;  // per switch
  Param w, b;
  // Switchable BN: one affine + stats set per switch.
  std::vector<Param> gamma, beta;
  std::vector<Tensor> run_mean, run_var;
  float eps = 1e-5f, momentum = 0.1f;

  // caches
  Tensor x_cache, xhat_cache;
  std::vector<float> inv_std_cache;
  std::vector<unsigned char> relu_mask;

  SlimConvBlock(const Conv2dGeometry& g, std::vector<int> in_a,
                std::vector<int> out_a, Rng& rng)
      : geom(g), in_active(std::move(in_a)), out_active(std::move(out_a)) {
    const int cols = g.patch();
    w.value = Tensor({g.out_c, cols});
    fill_kaiming_normal(w.value, cols, rng);
    b.value = Tensor({g.out_c});
    b.apply_decay = false;
    const std::size_t n = in_active.size();
    gamma.resize(n);
    beta.resize(n);
    run_mean.resize(n);
    run_var.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      gamma[i].value = Tensor({g.out_c});
      gamma[i].value.fill(1.0f);
      gamma[i].apply_decay = false;
      beta[i].value = Tensor({g.out_c});
      beta[i].apply_decay = false;
      run_mean[i] = Tensor({g.out_c});
      run_var[i] = Tensor({g.out_c});
      run_var[i].fill(1.0f);
    }
  }

  Tensor effective_weights(int sub) const {
    Tensor we = w.value;
    const int oa = out_active[static_cast<std::size_t>(sub - 1)];
    const int ia = in_active[static_cast<std::size_t>(sub - 1)];
    const int cols = geom.patch();
    const int kk = geom.kernel * geom.kernel;
    float* p = we.data();
    for (int u = 0; u < geom.out_c; ++u) {
      float* row = p + static_cast<std::size_t>(u) * cols;
      if (u >= oa) {
        std::memset(row, 0, sizeof(float) * static_cast<std::size_t>(cols));
        continue;
      }
      std::memset(row + ia * kk, 0,
                  sizeof(float) * static_cast<std::size_t>(cols - ia * kk));
    }
    return we;
  }

  Tensor forward(const Tensor& x, int sub, bool training) override {
    const int n = x.dim(0);
    const int oh = geom.out_h(), ow = geom.out_w();
    const int spatial = oh * ow;
    const Tensor we = effective_weights(sub);
    Tensor y({n, geom.out_c, oh, ow});
    Tensor cols({geom.patch(), spatial});
    const std::int64_t in_img =
        static_cast<std::int64_t>(geom.in_c) * geom.in_h * geom.in_w;
    const std::int64_t out_img = static_cast<std::int64_t>(geom.out_c) * spatial;
    for (int i = 0; i < n; ++i) {
      im2col(x.data() + i * in_img, geom, cols.data());
      Tensor yi({geom.out_c, spatial});
      gemm(we, cols, yi);
      float* dst = y.data() + i * out_img;
      for (int u = 0; u < geom.out_c; ++u) {
        const float bu = b.value[u];
        for (int s = 0; s < spatial; ++s) {
          dst[static_cast<std::int64_t>(u) * spatial + s] =
              yi[static_cast<std::int64_t>(u) * spatial + s] + bu;
        }
      }
    }
    if (training) x_cache = x;

    // Switchable BN on the active prefix, then ReLU; inactive channels zero.
    const int oa = out_active[static_cast<std::size_t>(sub - 1)];
    const std::size_t si = static_cast<std::size_t>(sub - 1);
    const std::int64_t plane = static_cast<std::int64_t>(oh) * ow;
    const std::int64_t m = static_cast<std::int64_t>(n) * plane;
    if (training) {
      if (xhat_cache.shape() != y.shape()) xhat_cache = Tensor(y.shape());
      inv_std_cache.assign(static_cast<std::size_t>(geom.out_c), 0.0f);
      relu_mask.assign(static_cast<std::size_t>(y.numel()), 0);
    }
    for (int c = 0; c < geom.out_c; ++c) {
      if (c >= oa) {
        for (int i = 0; i < n; ++i) {
          float* dst =
              y.data() + (static_cast<std::int64_t>(i) * geom.out_c + c) * plane;
          std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(plane));
        }
        continue;
      }
      float mean, var;
      if (training) {
        double s = 0.0, s2 = 0.0;
        for (int i = 0; i < n; ++i) {
          const float* src =
              y.data() + (static_cast<std::int64_t>(i) * geom.out_c + c) * plane;
          for (std::int64_t j = 0; j < plane; ++j) {
            s += src[j];
            s2 += static_cast<double>(src[j]) * src[j];
          }
        }
        mean = static_cast<float>(s / static_cast<double>(m));
        var = std::max(
            0.0f, static_cast<float>(s2 / static_cast<double>(m)) - mean * mean);
        run_mean[si][c] = (1.0f - momentum) * run_mean[si][c] + momentum * mean;
        run_var[si][c] = (1.0f - momentum) * run_var[si][c] + momentum * var;
      } else {
        mean = run_mean[si][c];
        var = run_var[si][c];
      }
      const float inv_std = 1.0f / std::sqrt(var + eps);
      if (training) inv_std_cache[static_cast<std::size_t>(c)] = inv_std;
      const float g = gamma[si].value[c], be = beta[si].value[c];
      for (int i = 0; i < n; ++i) {
        const std::int64_t off =
            (static_cast<std::int64_t>(i) * geom.out_c + c) * plane;
        float* dst = y.data() + off;
        for (std::int64_t j = 0; j < plane; ++j) {
          const float xh = (dst[j] - mean) * inv_std;
          if (training) xhat_cache[off + j] = xh;
          float v = g * xh + be;
          const bool pos = v > 0.0f;
          if (training) relu_mask[static_cast<std::size_t>(off + j)] = pos ? 1 : 0;
          dst[j] = pos ? v : 0.0f;
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_y_in, int sub) override {
    Tensor grad_y = grad_y_in;
    const int n = grad_y.dim(0);
    const int oh = geom.out_h(), ow = geom.out_w();
    const int spatial = oh * ow;
    const std::int64_t plane = spatial;
    const std::int64_t m = static_cast<std::int64_t>(n) * plane;
    const int oa = out_active[static_cast<std::size_t>(sub - 1)];
    const int ia = in_active[static_cast<std::size_t>(sub - 1)];
    const std::size_t si = static_cast<std::size_t>(sub - 1);

    if (w.grad.shape() != w.value.shape()) w.zero_grad();
    if (b.grad.shape() != b.value.shape()) b.zero_grad();
    if (gamma[si].grad.shape() != gamma[si].value.shape()) gamma[si].zero_grad();
    if (beta[si].grad.shape() != beta[si].value.shape()) beta[si].zero_grad();

    // ReLU + BN backward into grad wrt conv preact.
    Tensor grad_pre(grad_y.shape());
    for (int c = 0; c < geom.out_c; ++c) {
      if (c >= oa) {
        for (int i = 0; i < n; ++i) {
          float* dst = grad_pre.data() +
                       (static_cast<std::int64_t>(i) * geom.out_c + c) * plane;
          std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(plane));
        }
        continue;
      }
      double sum_gy = 0.0, sum_gy_xh = 0.0;
      for (int i = 0; i < n; ++i) {
        const std::int64_t off =
            (static_cast<std::int64_t>(i) * geom.out_c + c) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          const float g =
              relu_mask[static_cast<std::size_t>(off + j)] ? grad_y[off + j] : 0.0f;
          sum_gy += g;
          sum_gy_xh += static_cast<double>(g) * xhat_cache[off + j];
        }
      }
      gamma[si].grad[c] += static_cast<float>(sum_gy_xh);
      beta[si].grad[c] += static_cast<float>(sum_gy);
      const float g = gamma[si].value[c];
      const float inv_std = inv_std_cache[static_cast<std::size_t>(c)];
      const float k1 = static_cast<float>(sum_gy / static_cast<double>(m));
      const float k2 = static_cast<float>(sum_gy_xh / static_cast<double>(m));
      for (int i = 0; i < n; ++i) {
        const std::int64_t off =
            (static_cast<std::int64_t>(i) * geom.out_c + c) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          const float gy =
              relu_mask[static_cast<std::size_t>(off + j)] ? grad_y[off + j] : 0.0f;
          grad_pre[off + j] = g * inv_std * (gy - k1 - xhat_cache[off + j] * k2);
        }
      }
    }

    // Conv backward.
    const Tensor we = effective_weights(sub);
    Tensor grad_x(x_cache.shape());
    Tensor cols({geom.patch(), spatial});
    Tensor dcols({geom.patch(), spatial});
    const std::int64_t in_img =
        static_cast<std::int64_t>(geom.in_c) * geom.in_h * geom.in_w;
    const std::int64_t out_img = static_cast<std::int64_t>(geom.out_c) * spatial;
    Tensor dw_local({geom.out_c, geom.patch()});
    for (int i = 0; i < n; ++i) {
      im2col(x_cache.data() + i * in_img, geom, cols.data());
      Tensor gi({geom.out_c, spatial},
                std::vector<float>(grad_pre.data() + i * out_img,
                                   grad_pre.data() + (i + 1) * out_img));
      gemm_nt(gi, cols, dw_local, /*accumulate=*/true);
      float* db = b.grad.data();
      for (int u = 0; u < oa; ++u) {
        float acc = 0.0f;
        for (int s = 0; s < spatial; ++s)
          acc += gi[static_cast<std::int64_t>(u) * spatial + s];
        db[u] += acc;
      }
      gemm_tn(we, gi, dcols);
      col2im(dcols.data(), geom, grad_x.data() + i * in_img);
    }
    // Only the active block of weights belongs to this switch.
    const int kk = geom.kernel * geom.kernel;
    for (int u = 0; u < oa; ++u) {
      const float* src = dw_local.data() + static_cast<std::size_t>(u) * geom.patch();
      float* dst = w.grad.data() + static_cast<std::size_t>(u) * geom.patch();
      for (int c2 = 0; c2 < ia * kk; ++c2) dst[c2] += src[c2];
    }
    return grad_x;
  }

  void collect_params(int sub, std::vector<Param*>& out) override {
    out.push_back(&w);
    out.push_back(&b);
    out.push_back(&gamma[static_cast<std::size_t>(sub - 1)]);
    out.push_back(&beta[static_cast<std::size_t>(sub - 1)]);
  }

  std::int64_t macs(int sub) const override {
    const int oa = out_active[static_cast<std::size_t>(sub - 1)];
    const int ia = in_active[static_cast<std::size_t>(sub - 1)];
    return static_cast<std::int64_t>(oa) * ia * geom.kernel * geom.kernel *
           geom.out_h() * geom.out_w();
  }
};

struct SlimPool final : LayerImpl {
  int k;
  std::vector<int> argmax;
  std::vector<int> in_shape;
  explicit SlimPool(int kk) : k(kk) {}
  Tensor forward(const Tensor& x, int, bool) override {
    in_shape = x.shape();
    Tensor y;
    maxpool_forward(x, k, y, &argmax);
    return y;
  }
  Tensor backward(const Tensor& grad_y, int) override {
    Tensor grad_x(in_shape);
    maxpool_backward(grad_y, argmax, grad_x);
    return grad_x;
  }
};

struct SlimFlatten final : LayerImpl {
  std::vector<int> in_shape;
  Tensor forward(const Tensor& x, int, bool) override {
    in_shape = x.shape();
    const int n = x.dim(0);
    return x.reshaped({n, static_cast<int>(x.numel() / n)});
  }
  Tensor backward(const Tensor& grad_y, int) override {
    return grad_y.reshaped(in_shape);
  }
};

/// Dense (+ optional ReLU), prefix-sliced; the head keeps all outputs.
struct SlimDense final : LayerImpl {
  int out_f, in_f, fpu;  // fpu: input features per producer unit (flatten)
  bool relu, is_head;
  std::vector<int> in_active, out_active;  // per switch, in UNITS
  Param w, b;
  Tensor x_cache, pre_cache;
  std::vector<unsigned char> relu_mask;

  SlimDense(int out_features, int in_features, int features_per_unit, bool act,
            bool head, std::vector<int> in_a, std::vector<int> out_a, Rng& rng)
      : out_f(out_features),
        in_f(in_features),
        fpu(features_per_unit),
        relu(act),
        is_head(head),
        in_active(std::move(in_a)),
        out_active(std::move(out_a)) {
    w.value = Tensor({out_f, in_f});
    fill_kaiming_normal(w.value, in_f, rng);
    b.value = Tensor({out_f});
    b.apply_decay = false;
  }

  Tensor effective_weights(int sub) const {
    Tensor we = w.value;
    const int oa = is_head ? out_f : out_active[static_cast<std::size_t>(sub - 1)];
    const int ia_cols = in_active[static_cast<std::size_t>(sub - 1)] * fpu;
    float* p = we.data();
    for (int u = 0; u < out_f; ++u) {
      float* row = p + static_cast<std::size_t>(u) * in_f;
      if (u >= oa) {
        std::memset(row, 0, sizeof(float) * static_cast<std::size_t>(in_f));
        continue;
      }
      if (ia_cols < in_f) {
        std::memset(row + ia_cols, 0,
                    sizeof(float) * static_cast<std::size_t>(in_f - ia_cols));
      }
    }
    return we;
  }

  Tensor forward(const Tensor& x, int sub, bool training) override {
    const int n = x.dim(0);
    const Tensor we = effective_weights(sub);
    Tensor y({n, out_f});
    gemm_nt(x, we, y);
    const int oa = is_head ? out_f : out_active[static_cast<std::size_t>(sub - 1)];
    for (int i = 0; i < n; ++i) {
      float* row = y.data() + static_cast<std::int64_t>(i) * out_f;
      for (int u = 0; u < oa; ++u) row[u] += b.value[u];
      for (int u = oa; u < out_f; ++u) row[u] = 0.0f;
    }
    if (training) {
      x_cache = x;
      pre_cache = y;
    }
    if (relu) {
      if (training) {
        relu_mask.assign(static_cast<std::size_t>(y.numel()), 0);
        float* p = y.data();
        for (std::int64_t i = 0; i < y.numel(); ++i) {
          const bool pos = p[i] > 0.0f;
          relu_mask[static_cast<std::size_t>(i)] = pos ? 1 : 0;
          if (!pos) p[i] = 0.0f;
        }
      } else {
        float* p = y.data();
        for (std::int64_t i = 0; i < y.numel(); ++i) {
          if (p[i] < 0.0f) p[i] = 0.0f;
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_y_in, int sub) override {
    Tensor grad_y = grad_y_in;
    if (relu) {
      float* g = grad_y.data();
      for (std::int64_t i = 0; i < grad_y.numel(); ++i) {
        if (!relu_mask[static_cast<std::size_t>(i)]) g[i] = 0.0f;
      }
    }
    const int n = grad_y.dim(0);
    const int oa = is_head ? out_f : out_active[static_cast<std::size_t>(sub - 1)];
    const int ia_cols = in_active[static_cast<std::size_t>(sub - 1)] * fpu;
    // Zero grads of inactive outputs.
    for (int i = 0; i < n; ++i) {
      float* row = grad_y.data() + static_cast<std::int64_t>(i) * out_f;
      for (int u = oa; u < out_f; ++u) row[u] = 0.0f;
    }
    if (w.grad.shape() != w.value.shape()) w.zero_grad();
    if (b.grad.shape() != b.value.shape()) b.zero_grad();
    Tensor dw({out_f, in_f});
    gemm_tn(grad_y, x_cache, dw);
    for (int u = 0; u < oa; ++u) {
      const float* src = dw.data() + static_cast<std::size_t>(u) * in_f;
      float* dst = w.grad.data() + static_cast<std::size_t>(u) * in_f;
      for (int c = 0; c < ia_cols; ++c) dst[c] += src[c];
    }
    float* db = b.grad.data();
    for (int i = 0; i < n; ++i) {
      const float* row = grad_y.data() + static_cast<std::int64_t>(i) * out_f;
      for (int u = 0; u < oa; ++u) db[u] += row[u];
    }
    const Tensor we = effective_weights(sub);
    Tensor grad_x({n, in_f});
    gemm(grad_y, we, grad_x);
    return grad_x;
  }

  void collect_params(int sub, std::vector<Param*>& out) override {
    (void)sub;
    out.push_back(&w);
    out.push_back(&b);
  }

  std::int64_t macs(int sub) const override {
    const int oa = is_head ? out_f : out_active[static_cast<std::size_t>(sub - 1)];
    return static_cast<std::int64_t>(oa) *
           in_active[static_cast<std::size_t>(sub - 1)] * fpu;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Spec builders / MAC solving
// ---------------------------------------------------------------------------

SlimSpec slim_spec_for_model(const std::string& name, int classes,
                             double expansion, double width_mult) {
  auto scaled = [&](int base) {
    return std::max(2, static_cast<int>(std::lround(base * expansion * width_mult)));
  };
  SlimSpec s;
  using K = SlimSpec::Kind;
  if (name == "lenet3c1l") {
    s.blocks = {{K::kConvBlock, scaled(32), 5}, {K::kPool, 0, 2},
                {K::kConvBlock, scaled(48), 5}, {K::kPool, 0, 2},
                {K::kConvBlock, scaled(64), 5}, {K::kPool, 0, 2},
                {K::kDenseHead, classes, 0}};
  } else if (name == "lenet5") {
    s.blocks = {{K::kConvBlock, scaled(6), 5},    {K::kPool, 0, 2},
                {K::kConvBlock, scaled(16), 5},   {K::kPool, 0, 2},
                {K::kDenseHidden, scaled(120), 0}, {K::kDenseHidden, scaled(84), 0},
                {K::kDenseHead, classes, 0}};
  } else if (name == "vgg16") {
    const int ch[5] = {64, 128, 256, 512, 512};
    const int depth[5] = {2, 2, 3, 3, 3};
    for (int st = 0; st < 5; ++st) {
      for (int d = 0; d < depth[st]; ++d) {
        s.blocks.push_back({K::kConvBlock, scaled(ch[st]), 3});
      }
      s.blocks.push_back({K::kPool, 0, 2});
    }
    s.blocks.push_back({K::kDenseHead, classes, 0});
  } else {
    throw std::invalid_argument("slim_spec_for_model: unknown model " + name);
  }
  return s;
}

std::int64_t slim_macs_for_fraction(const SlimSpec& spec, double f) {
  std::int64_t total = 0;
  int c = spec.in_c, h = spec.in_h, w = spec.in_w;
  bool first = true;
  for (const auto& blk : spec.blocks) {
    switch (blk.kind) {
      case SlimSpec::Kind::kConvBlock: {
        const int oa = prefix_count(blk.width, f);
        const int ia = first ? c : prefix_count(c, f);
        total += static_cast<std::int64_t>(oa) * ia * blk.kernel * blk.kernel * h * w;
        c = blk.width;
        first = false;
        break;
      }
      case SlimSpec::Kind::kPool:
        h /= blk.kernel;
        w /= blk.kernel;
        break;
      case SlimSpec::Kind::kDenseHidden:
      case SlimSpec::Kind::kDenseHead: {
        const bool head = blk.kind == SlimSpec::Kind::kDenseHead;
        const int oa = head ? blk.width : prefix_count(blk.width, f);
        const int ia = first ? c : prefix_count(c, f);
        // Input features per active producer unit = h*w (spatial collapsed
        // by the implicit Flatten before the first dense; 1 afterwards).
        total += static_cast<std::int64_t>(oa) * ia * h * w;
        c = blk.width;
        h = 1;
        w = 1;
        first = false;
        break;
      }
    }
  }
  return total;
}

std::vector<double> solve_slim_fractions(const SlimSpec& spec,
                                         const std::vector<std::int64_t>& budgets) {
  std::vector<double> fracs;
  fracs.reserve(budgets.size());
  for (const std::int64_t budget : budgets) {
    double lo = 0.0, hi = 1.0;
    for (int it = 0; it < 40; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (slim_macs_for_fraction(spec, mid) <= budget) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    fracs.push_back(lo);
  }
  for (std::size_t i = 1; i < fracs.size(); ++i) {
    fracs[i] = std::max(fracs[i], fracs[i - 1]);
  }
  return fracs;
}

// ---------------------------------------------------------------------------
// SlimmableNet
// ---------------------------------------------------------------------------

SlimmableNet::SlimmableNet(const SlimSpec& spec, std::vector<double> width_fracs,
                           std::uint64_t seed)
    : fracs_(std::move(width_fracs)), rng_(seed) {
  const int n = static_cast<int>(fracs_.size());
  if (n == 0) throw std::invalid_argument("SlimmableNet: no width fractions");

  int c = spec.in_c, h = spec.in_h, w = spec.in_w;
  bool first = true;
  bool flat = false;
  for (const auto& blk : spec.blocks) {
    switch (blk.kind) {
      case SlimSpec::Kind::kConvBlock: {
        Conv2dGeometry g{c, h, w, blk.width, blk.kernel, 1, blk.kernel / 2};
        std::vector<int> in_a(static_cast<std::size_t>(n)),
            out_a(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          in_a[static_cast<std::size_t>(i)] =
              first ? c : prefix_count(c, fracs_[static_cast<std::size_t>(i)]);
          out_a[static_cast<std::size_t>(i)] =
              prefix_count(blk.width, fracs_[static_cast<std::size_t>(i)]);
        }
        layers_.push_back(std::make_unique<SlimConvBlock>(g, in_a, out_a, rng_));
        c = blk.width;
        h = g.out_h();
        w = g.out_w();
        first = false;
        break;
      }
      case SlimSpec::Kind::kPool:
        layers_.push_back(std::make_unique<SlimPool>(blk.kernel));
        h /= blk.kernel;
        w /= blk.kernel;
        break;
      case SlimSpec::Kind::kDenseHidden:
      case SlimSpec::Kind::kDenseHead: {
        int fpu = 1;
        if (!flat) {
          layers_.push_back(std::make_unique<SlimFlatten>());
          fpu = h * w;
          flat = true;
        }
        const bool head = blk.kind == SlimSpec::Kind::kDenseHead;
        std::vector<int> in_a(static_cast<std::size_t>(n)),
            out_a(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          in_a[static_cast<std::size_t>(i)] =
              first ? c : prefix_count(c, fracs_[static_cast<std::size_t>(i)]);
          out_a[static_cast<std::size_t>(i)] =
              head ? blk.width
                   : prefix_count(blk.width, fracs_[static_cast<std::size_t>(i)]);
        }
        layers_.push_back(std::make_unique<SlimDense>(
            blk.width, c * fpu, fpu, /*act=*/!head, head, in_a, out_a, rng_));
        c = blk.width;
        h = 1;
        w = 1;
        first = false;
        break;
      }
    }
  }
}

SlimmableNet::~SlimmableNet() = default;
SlimmableNet::SlimmableNet(SlimmableNet&&) noexcept = default;
SlimmableNet& SlimmableNet::operator=(SlimmableNet&&) noexcept = default;

Tensor SlimmableNet::forward(const Tensor& x, int subnet_id, bool training) {
  assert(subnet_id >= 1 && subnet_id <= num_subnets());
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur, subnet_id, training);
  return cur;
}

void SlimmableNet::train(const Dataset& train, int epochs, int batch_size,
                         SgdConfig sgd_cfg) {
  Sgd sgd(sgd_cfg);
  LoaderConfig lc;
  lc.batch_size = batch_size;
  DataLoader loader(train, lc, rng_.fork());
  const int batches = loader.batches_per_epoch() * epochs;
  for (int bi = 0; bi < batches; ++bi) {
    const auto batch = loader.next();
    for (int sub = 1; sub <= num_subnets(); ++sub) {
      std::vector<Param*> params;
      for (auto& l : layers_) l->collect_params(sub, params);
      sgd.zero_grads(params);
      const Tensor logits = forward(batch.x, sub, /*training=*/true);
      LossOutput lo = softmax_cross_entropy(logits, batch.y);
      Tensor g = lo.grad_logits;
      for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        g = (*it)->backward(g, sub);
      }
      sgd.step(params);
    }
  }
}

double SlimmableNet::accuracy(const Dataset& data, int subnet_id) {
  return dataset_accuracy(data, 64, [&](const Tensor& x, const std::vector<int>& y) {
    const Tensor logits = forward(x, subnet_id, /*training=*/false);
    int correct = 0;
    const int n = logits.dim(0), c = logits.dim(1);
    for (int i = 0; i < n; ++i) {
      const float* row = logits.data() + static_cast<std::int64_t>(i) * c;
      int best = 0;
      for (int j = 1; j < c; ++j) {
        if (row[j] > row[best]) best = j;
      }
      if (best == y[static_cast<std::size_t>(i)]) ++correct;
    }
    return correct;
  });
}

std::int64_t SlimmableNet::macs(int subnet_id) const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l->macs(subnet_id);
  return total;
}

}  // namespace stepping
