// Training layers of a traced run: one caller and a kernel pool of two run
// SteppingNet::pretrain -> construct -> distill on LeNet-3C1L with its
// Table I budgets and the quick-scale hyper-parameters, then replay one
// mini-batch through the training forward, backward and SGD step. Every
// step runs backward GEMMs and an SGD write, which invalidates the
// packed-weight cache the inference workloads only read.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/macs.h"
#include "core/stepping_net.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using stepping::Network;
using stepping::Tensor;

constexpr int kKernelThreads = 2;
constexpr int kLevels = 4;
// Quick-scale hyper-parameters of LeNet-3C1L.
constexpr double kWidth = 0.25;
constexpr int kBatch = 25;
constexpr int kPretrainEpochs = 5;
constexpr int kDistillEpochs = 2;
constexpr int kBatchesPerIter = 3;
constexpr double kLr = 0.05;
// Sized by the benchmark: a pipeline takes about ten seconds on a 4-core
// host, and eight construction iterations bring the levels to their budgets.
constexpr int kTrainPerClass = 20;
constexpr int kTestPerClass = 20;
constexpr int kMaxIters = 8;
/// Held-out top-1 accuracy of the top subnet must reach this floor (chance
/// is 0.10 on ten classes).
constexpr double kAccuracyFloor = 0.20;

struct TrainState {
  stepping::DataSplit data;
  Network expanded;
  std::int64_t ref_macs = 0;
};

std::unique_ptr<TrainState> setup_train(std::uint64_t seed) {
  auto st = std::make_unique<TrainState>();
  st->data = stepping::make_synthetic(
      stepping::synth_cifar10(kTrainPerClass, kTestPerClass, seed));
  const TableOneSpec spec = lenet_spec(kWidth);
  Network ref = build_reference(spec);
  st->ref_macs = stepping::full_macs(ref);
  st->expanded = build_expanded(spec);
  return st;
}

stepping::SteppingConfig stepping_config(std::int64_t ref_macs) {
  stepping::SteppingConfig cfg;
  cfg.num_subnets = kLevels;
  cfg.mac_budget_frac = lenet_spec(kWidth).budgets;
  cfg.reference_macs = ref_macs;
  cfg.batches_per_iter = kBatchesPerIter;
  cfg.max_iters = kMaxIters;
  cfg.sgd.lr = kLr;
  return cfg;
}

struct Pipeline {
  double pretrain_ms = 0, construct_ms = 0, distill_ms = 0;
  double images = 0;  ///< training images, once per subnet trained
  double loss = 0, accuracy = 0;
  std::unique_ptr<stepping::SteppingNet> sn;
};

Pipeline run_pipeline(TrainState& st, Tracer& tr, std::int64_t item) {
  Pipeline p;
  const stepping::SteppingConfig cfg = stepping_config(st.ref_macs);
  p.sn = std::make_unique<stepping::SteppingNet>(st.expanded.clone(), cfg,
                                                 kModelSeed + 21);
  const double n = st.data.train.size();
  const int top = tr.begin("core.pipeline", item);
  auto t0 = Clock::now();
  {
    Scope s(tr, "core.pretrain", item);
    p.loss = p.sn->pretrain(st.data.train, kPretrainEpochs, kBatch);
  }
  auto t1 = Clock::now();
  stepping::ConstructionReport report;
  {
    Scope s(tr, "core.construct", item);
    report = p.sn->construct(st.data.train, kBatch);
  }
  auto t2 = Clock::now();
  {
    Scope s(tr, "core.distill", item);
    p.sn->distill(st.data.train, kDistillEpochs, kBatch);
  }
  auto t3 = Clock::now();
  tr.end(top);
  p.pretrain_ms = ms_between(t0, t1);
  p.construct_ms = ms_between(t1, t2);
  p.distill_ms = ms_between(t2, t3);
  p.images = kPretrainEpochs * n +
             static_cast<double>(report.iterations) * kBatchesPerIter * kBatch * kLevels +
             kDistillEpochs * n * kLevels;
  p.accuracy = p.sn->accuracy(st.data.test, kLevels);
  return p;
}

}  // namespace

void probe_train_layers(const Args& args, Tracer& tr, Report& rep) {
  stepping::ThreadPool::set_global_threads(kKernelThreads);
  std::unique_ptr<TrainState> st = setup_train(args.seed);
  const auto h0 = global_counter("stepping_packcache_hits_total");
  const auto m0 = global_counter("stepping_packcache_misses_total");
  Pipeline p = run_pipeline(*st, tr, 0);
  const double hits = static_cast<double>(global_counter("stepping_packcache_hits_total") - h0);
  const double misses =
      static_cast<double>(global_counter("stepping_packcache_misses_total") - m0);
  std::printf("training pipeline: %.0f images once per subnet trained, %.1f images/s, "
              "loss %.4f, top-subnet accuracy %.4f (floor %.2f), pack-cache hit ratio %.3f, "
              "M_i/M_t",
              p.images, p.images / (p.pretrain_ms + p.construct_ms + p.distill_ms) * 1e3,
              p.loss, p.accuracy, kAccuracyFloor, hits / std::max(hits + misses, 1.0));
  for (int l = 1; l <= kLevels; ++l) std::printf(" %.4f", p.sn->mac_fraction(l));
  std::printf("\n");
  rep.attempted(1);
  rep.failed(std::isfinite(p.loss) && p.accuracy >= kAccuracyFloor ? 0 : 1,
             "probe pipeline below the accuracy floor or with a non-finite loss");
  rep.metric("core.pretrain_s", p.pretrain_ms / 1e3, "s");
  rep.metric("core.construct_s", p.construct_ms / 1e3, "s");
  rep.metric("core.distill_s", p.distill_ms / 1e3, "s");

  // One mini-batch of the top subnet replayed through the training forward,
  // Network::backward and Sgd::step.
  Network& net = p.sn->network();
  Tensor x;
  std::vector<int> y;
  st->data.train.batch(0, kBatch, x, y);
  stepping::SubnetContext ctx;
  ctx.subnet_id = kLevels;
  ctx.num_subnets = kLevels;
  ctx.training = true;
  stepping::Sgd sgd(stepping::SgdConfig{.lr = kLr});
  std::vector<double> fwd, bwd, upd;
  for (int r = 0; r < 30; ++r) {
    net.zero_grads();
    auto t0 = Clock::now();
    Tensor logits;
    {
      Scope s(tr, "nn.train_forward", r);
      logits = net.forward(x, ctx);
    }
    auto t1 = Clock::now();
    const stepping::LossOutput loss = stepping::softmax_cross_entropy(logits, y);
    auto t2 = Clock::now();
    {
      Scope s(tr, "nn.backward", r);
      net.backward(loss.grad_logits, ctx);
    }
    auto t3 = Clock::now();
    {
      Scope s(tr, "nn.sgd_step", r);
      sgd.step(net.params());
    }
    auto t4 = Clock::now();
    fwd.push_back(ms_between(t0, t1));
    bwd.push_back(ms_between(t2, t3));
    upd.push_back(ms_between(t3, t4));
  }
  rep.metric("nn.train_forward_ms", median(fwd), "ms");
  rep.metric("nn.backward_ms", median(bwd), "ms");
  rep.metric("nn.sgd_step_ms", median(upd), "ms");
}

}  // namespace perfbench
