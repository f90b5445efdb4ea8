#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/sgd.h"
#include "nn/simple_layers.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace stepping {
namespace {

Network tiny_net(int classes = 4) {
  Network net;
  net.emplace<Conv2d>("c1", 6, 3);
  net.emplace<BatchNorm2d>("bn1");
  net.emplace<ReLU>("r1");
  net.emplace<MaxPool2d>("p1", 2);
  net.emplace<Conv2d>("c2", 8, 3);
  net.emplace<ReLU>("r2");
  net.emplace<Flatten>("flat");
  net.emplace<Dense>("fc", classes);
  Rng rng(5);
  net.wire(3, 8, 8, rng);
  return net;
}

TEST(Network, WireResolvesShapesAndHead) {
  Network net = tiny_net();
  const auto masked = net.masked_layers();
  ASSERT_EQ(masked.size(), 3u);
  EXPECT_FALSE(masked[0]->is_head());
  EXPECT_FALSE(masked[1]->is_head());
  EXPECT_TRUE(masked[2]->is_head());
  EXPECT_EQ(net.body_layers().size(), 2u);
  EXPECT_EQ(net.num_classes(), 4);
}

TEST(Network, WireWithoutMaskedLayerThrows) {
  Network net;
  net.emplace<ReLU>("r");
  Rng rng(1);
  EXPECT_THROW(net.wire(1, 4, 4, rng), std::logic_error);
}

TEST(Network, ForwardProducesLogits) {
  Network net = tiny_net();
  Tensor x({2, 3, 8, 8});
  Rng rng(7);
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  const Tensor logits = net.forward(x, ctx);
  EXPECT_EQ(logits.shape(), (std::vector<int>{2, 4}));
}

TEST(Network, ConsumerOfChainsBodyLayers) {
  Network net = tiny_net();
  const auto masked = net.masked_layers();
  EXPECT_EQ(net.consumer_of(masked[0]), masked[1]);
  EXPECT_EQ(net.consumer_of(masked[1]), masked[2]);
  EXPECT_EQ(net.consumer_of(masked[2]), nullptr);
}

TEST(Network, ParamsCollectsAllTrainables) {
  Network net = tiny_net();
  // conv(w,b) + bn(gamma,beta) + conv(w,b) + fc(w,b) = 8 params.
  EXPECT_EQ(net.params().size(), 8u);
}

TEST(Network, TrainingReducesLoss) {
  Network net = tiny_net(3);
  Rng rng(11);
  Tensor x({12, 3, 8, 8});
  fill_normal(x, 0.0f, 1.0f, rng);
  std::vector<int> y(12);
  for (int i = 0; i < 12; ++i) y[static_cast<std::size_t>(i)] = i % 3;
  Sgd sgd({.lr = 0.05, .momentum = 0.9, .weight_decay = 0.0});
  SubnetContext ctx;
  ctx.training = true;
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 30; ++step) {
    const BatchStats s = train_batch(net, sgd, x, y, ctx);
    if (step == 0) first = s.loss;
    last = s.loss;
  }
  EXPECT_LT(last, first * 0.5);  // memorizes a fixed batch quickly
}

// An eval forward between a training forward and its backward (e.g. an
// evaluation in the middle of a step) must leave the training pass's
// backward state alone: the gradients equal an uninterrupted pass's.
TEST(Network, EvalForwardBetweenTrainingForwardAndBackwardKeepsGradients) {
  Network net = tiny_net();
  Network ref = net.clone();
  Rng rng(17);
  Tensor x1({2, 3, 8, 8});
  Tensor x2({3, 3, 8, 8});
  fill_normal(x1, 0.0f, 1.0f, rng);
  fill_normal(x2, 0.0f, 1.0f, rng);
  Tensor g({2, 4});
  fill_normal(g, 0.0f, 1.0f, rng);
  SubnetContext train;
  train.training = true;
  SubnetContext eval;

  for (Param* p : ref.params()) p->zero_grad();
  ref.forward(x1, train);
  ref.backward(g, train);

  for (Param* p : net.params()) p->zero_grad();
  net.forward(x1, train);
  net.forward(x2, eval);
  net.backward(g, train);

  const auto want = ref.params();
  const auto got = net.params();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i]->grad.shape(), got[i]->grad.shape()) << want[i]->name;
    EXPECT_EQ(std::memcmp(want[i]->grad.data(), got[i]->grad.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              want[i]->grad.numel())),
              0)
        << want[i]->name;
  }
}

TEST(Network, CloneIsIndependentDeepCopy) {
  Network net = tiny_net();
  Tensor x({1, 3, 8, 8});
  Rng rng(13);
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  const Tensor y1 = net.forward(x, ctx);

  Network copy = net.clone();
  const Tensor y2 = copy.forward(x, ctx);
  ASSERT_EQ(y1.shape(), y2.shape());
  for (std::int64_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);

  // Mutating the copy's weights must not affect the original.
  copy.masked_layers()[0]->weight().value.fill(0.0f);
  const Tensor y3 = net.forward(x, ctx);
  for (std::int64_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y3[i]);
}

TEST(Network, CloneCopiesSubnetAssignments) {
  Network net = tiny_net();
  net.body_layers()[0]->set_unit_subnet(2, 3);
  Network copy = net.clone();
  EXPECT_EQ(copy.body_layers()[0]->unit_subnet()[2], 3);
  // And the copy's assignments are its own storage.
  copy.body_layers()[0]->set_unit_subnet(2, 1);
  EXPECT_EQ(net.body_layers()[0]->unit_subnet()[2], 3);
}

TEST(Network, CloneAssignmentMutationPropagatesToConsumers) {
  // The consumer's in_subnet view must reflect the clone's own assignment,
  // not the original's.
  Network net = tiny_net();
  Network copy = net.clone();
  copy.body_layers()[0]->set_unit_subnet(0, 2);
  EXPECT_EQ(copy.body_layers()[1]->in_subnet()[0], 2);
  EXPECT_EQ(net.body_layers()[1]->in_subnet()[0], 1);
}

TEST(Network, SubnetMaskingZeroesInactiveChannelsEverywhere) {
  Network net = tiny_net();
  auto* c1 = net.body_layers()[0];
  c1->set_unit_subnet(1, 2);
  c1->set_unit_subnet(4, 2);
  Tensor x({2, 3, 8, 8});
  Rng rng(17);
  fill_normal(x, 0.0f, 1.0f, rng);
  SubnetContext ctx;
  ctx.subnet_id = 1;
  ctx.training = true;  // exercises BN batch-stat path too
  net.forward(x, ctx);
  // Check the conv's own output via a fresh forward of the first 3 layers.
  Tensor cur = x;
  for (int li = 0; li < 3; ++li) {
    cur = net.layer_ptrs()[static_cast<std::size_t>(li)]->forward(cur, ctx);
  }
  for (int i = 0; i < 2; ++i) {
    for (int h = 0; h < 8; ++h) {
      for (int w = 0; w < 8; ++w) {
        EXPECT_EQ(cur.at(i, 1, h, w), 0.0f);
        EXPECT_EQ(cur.at(i, 4, h, w), 0.0f);
      }
    }
  }
}

TEST(Loss, CrossEntropyMatchesManualComputation) {
  Tensor logits({1, 3}, {1.0f, 2.0f, 3.0f});
  const LossOutput lo = softmax_cross_entropy(logits, {2});
  // p = softmax([1,2,3]); loss = -log p[2]
  const double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(lo.loss, -std::log(std::exp(3.0) / denom), 1e-5);
  EXPECT_EQ(lo.correct, 1);
}

TEST(Loss, CrossEntropyGradientSumsToZeroPerRow) {
  Rng rng(19);
  Tensor logits({4, 5});
  fill_normal(logits, 0.0f, 2.0f, rng);
  const LossOutput lo = softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (int i = 0; i < 4; ++i) {
    double s = 0.0;
    for (int j = 0; j < 5; ++j) s += lo.grad_logits.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, CrossEntropyGradientMatchesNumeric) {
  Rng rng(23);
  Tensor logits({2, 4});
  fill_normal(logits, 0.0f, 1.0f, rng);
  const std::vector<int> labels = {1, 3};
  const LossOutput lo = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double num = (softmax_cross_entropy(lp, labels).loss -
                        softmax_cross_entropy(lm, labels).loss) /
                       (2.0 * eps);
    EXPECT_NEAR(lo.grad_logits[i], num, 1e-3);
  }
}

TEST(Loss, DistillationReducesToCrossEntropyAtGammaOne) {
  Rng rng(29);
  Tensor logits({3, 4}), teacher({3, 4});
  fill_normal(logits, 0.0f, 1.0f, rng);
  softmax_rows(logits, teacher);  // arbitrary valid distribution
  const std::vector<int> labels = {0, 1, 2};
  const LossOutput ce = softmax_cross_entropy(logits, labels);
  const LossOutput kd = distillation_loss(logits, labels, teacher, 1.0);
  EXPECT_NEAR(kd.loss, ce.loss, 1e-5);
  for (std::int64_t i = 0; i < ce.grad_logits.numel(); ++i) {
    EXPECT_NEAR(kd.grad_logits[i], ce.grad_logits[i], 1e-6f);
  }
}

TEST(Loss, DistillationKlZeroWhenStudentMatchesTeacher) {
  Rng rng(31);
  Tensor logits({2, 5});
  fill_normal(logits, 0.0f, 1.0f, rng);
  Tensor teacher;
  softmax_rows(logits, teacher);
  const LossOutput kd = distillation_loss(logits, {0, 1}, teacher, 0.0);
  EXPECT_NEAR(kd.loss, 0.0, 1e-5);
  for (std::int64_t i = 0; i < kd.grad_logits.numel(); ++i) {
    EXPECT_NEAR(kd.grad_logits[i], 0.0f, 1e-6f);
  }
}

TEST(Loss, DistillationGradientMatchesNumeric) {
  Rng rng(37);
  Tensor logits({2, 3}), t_logits({2, 3});
  fill_normal(logits, 0.0f, 1.0f, rng);
  fill_normal(t_logits, 0.0f, 1.0f, rng);
  Tensor teacher;
  softmax_rows(t_logits, teacher);
  const std::vector<int> labels = {2, 0};
  const double gamma = 0.4;
  const LossOutput lo = distillation_loss(logits, labels, teacher, gamma);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double num = (distillation_loss(lp, labels, teacher, gamma).loss -
                        distillation_loss(lm, labels, teacher, gamma).loss) /
                       (2.0 * eps);
    EXPECT_NEAR(lo.grad_logits[i], num, 1e-3);
  }
}

TEST(SgdTest, PlainStepMovesAgainstGradient) {
  Param p;
  p.value = Tensor({2}, {1.0f, -1.0f});
  p.grad = Tensor({2}, {0.5f, -0.5f});
  p.apply_decay = false;
  Sgd sgd({.lr = 0.1, .momentum = 0.0, .weight_decay = 0.0});
  sgd.step({&p});
  EXPECT_NEAR(p.value[0], 0.95f, 1e-6f);
  EXPECT_NEAR(p.value[1], -0.95f, 1e-6f);
}

TEST(SgdTest, MomentumAccumulates) {
  Param p;
  p.value = Tensor({1}, {0.0f});
  p.apply_decay = false;
  Sgd sgd({.lr = 1.0, .momentum = 0.5, .weight_decay = 0.0});
  p.grad = Tensor({1}, {1.0f});
  sgd.step({&p});  // v=1, w=-1
  EXPECT_NEAR(p.value[0], -1.0f, 1e-6f);
  p.grad = Tensor({1}, {0.0f});
  sgd.step({&p});  // v=0.5, w=-1.5
  EXPECT_NEAR(p.value[0], -1.5f, 1e-6f);
}

TEST(SgdTest, WeightDecayShrinksParams) {
  Param p;
  p.value = Tensor({1}, {1.0f});
  p.grad = Tensor({1}, {0.0f});
  Sgd sgd({.lr = 0.1, .momentum = 0.0, .weight_decay = 0.5});
  sgd.step({&p});
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(SgdTest, ElemLrScaleSuppressesUpdates) {
  Param p;
  p.value = Tensor({2}, {0.0f, 0.0f});
  p.grad = Tensor({2}, {1.0f, 1.0f});
  p.apply_decay = false;
  const std::vector<float> scale = {1.0f, 0.1f};
  p.elem_lr_scale = &scale;
  Sgd sgd({.lr = 1.0, .momentum = 0.0, .weight_decay = 0.0});
  sgd.step({&p});
  EXPECT_NEAR(p.value[0], -1.0f, 1e-6f);
  EXPECT_NEAR(p.value[1], -0.1f, 1e-6f);
}

TEST(SgdTest, LrMultScalesStep) {
  Param p;
  p.value = Tensor({1}, {0.0f});
  p.grad = Tensor({1}, {1.0f});
  p.apply_decay = false;
  Sgd sgd({.lr = 0.1, .momentum = 0.0, .weight_decay = 0.0});
  sgd.step({&p}, /*lr_mult=*/0.5);
  EXPECT_NEAR(p.value[0], -0.05f, 1e-6f);
}

TEST(SgdTest, UntouchedParamSkipped) {
  Param p;
  p.value = Tensor({1}, {2.0f});
  // grad never allocated
  Sgd sgd({.lr = 0.1, .momentum = 0.0, .weight_decay = 1.0});
  sgd.step({&p});
  EXPECT_EQ(p.value[0], 2.0f);
}

}  // namespace
}  // namespace stepping
