#include "clado/nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "clado/nn/loss.h"
#include "clado/nn/optimizer.h"
#include "clado/nn/sequential.h"
#include "gradcheck_util.h"

namespace clado::nn {
namespace {

using clado::tensor::Rng;
using clado::testing::check_gradients;

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 2, 1);
  conv.init(rng);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Conv2d conv(1, 1, 1, 1, 0, 1, /*bias=*/false);
  conv.weight_param().value.fill(1.0F);
  Rng rng(2);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  const Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, KnownConvolution) {
  // 2x2 input, 2x2 kernel of ones, no pad: single output = sum of input.
  Conv2d conv(1, 1, 2, 1, 0, 1, /*bias=*/true);
  conv.weight_param().value.fill(1.0F);
  std::vector<ParamRef> params;
  conv.collect_params("", params);
  ASSERT_EQ(params.size(), 2U);
  params[1].param->value.fill(0.5F);  // bias
  const Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 10.5F);
}

TEST(Conv2d, BiasBroadcastsPerChannel) {
  Rng rng(3);
  Conv2d conv(1, 2, 1, 1, 0);
  conv.init(rng);
  std::vector<ParamRef> params;
  conv.collect_params("", params);
  params[1].param->value = Tensor({2}, std::vector<float>{1.0F, -2.0F});
  conv.weight_param().value.fill(0.0F);
  const Tensor y = conv.forward(Tensor({1, 1, 2, 2}, 5.0F));
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 1.0F);
  EXPECT_FLOAT_EQ(y.at({0, 1, 0, 0}), -2.0F);
}

TEST(Conv2d, GradCheckDense) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1);
  conv.init(rng);
  const Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  const Tensor proj = Tensor::randn({2, 3, 5, 5}, rng);
  check_gradients(conv, x, proj);
}

TEST(Conv2d, GradCheckStridedGrouped) {
  Rng rng(5);
  Conv2d conv(4, 4, 3, 2, 1, /*groups=*/2);
  conv.init(rng);
  const Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  const Tensor proj = Tensor::randn({2, 4, 3, 3}, rng);
  check_gradients(conv, x, proj);
}

TEST(Conv2d, GradCheckDepthwise) {
  Rng rng(6);
  Conv2d conv(3, 3, 3, 1, 1, /*groups=*/3);
  conv.init(rng);
  const Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  const Tensor proj = Tensor::randn({1, 3, 4, 4}, rng);
  check_gradients(conv, x, proj);
}

TEST(Conv2d, WeightTransformAppliedInForward) {
  Rng rng(7);
  Conv2d conv(1, 1, 1, 1, 0, 1, /*bias=*/false);
  conv.weight_param().value.fill(2.0F);
  conv.set_weight_transform([](const Tensor& w) {
    Tensor out = w;
    out *= 3.0F;
    return out;
  });
  const Tensor y = conv.forward(Tensor({1, 1, 1, 1}, 1.0F));
  EXPECT_FLOAT_EQ(y[0], 6.0F);
  conv.set_weight_transform(nullptr);
  const Tensor y2 = conv.forward(Tensor({1, 1, 1, 1}, 1.0F));
  EXPECT_FLOAT_EQ(y2[0], 2.0F);
}

TEST(Linear, MatchesHandComputation) {
  Linear fc(2, 2);
  fc.weight_param().value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  std::vector<ParamRef> params;
  fc.collect_params("", params);
  params[1].param->value = Tensor({2}, std::vector<float>{0.5F, -0.5F});
  const Tensor y = fc.forward(Tensor({1, 2}, std::vector<float>{1, 1}));
  EXPECT_FLOAT_EQ(y.at({0, 0}), 3.5F);
  EXPECT_FLOAT_EQ(y.at({0, 1}), 6.5F);
}

TEST(Linear, FoldsLeadingAxes) {
  Rng rng(8);
  Linear fc(4, 3);
  fc.init(rng);
  const Tensor x = Tensor::randn({2, 5, 4}, rng);
  const Tensor y = fc.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 3}));
}

TEST(Linear, GradCheck) {
  Rng rng(9);
  Linear fc(6, 4);
  fc.init(rng);
  const Tensor x = Tensor::randn({3, 6}, rng);
  const Tensor proj = Tensor::randn({3, 4}, rng);
  check_gradients(fc, x, proj);
}

TEST(Linear, GradCheck3d) {
  Rng rng(10);
  Linear fc(5, 5);
  fc.init(rng);
  const Tensor x = Tensor::randn({2, 3, 5}, rng);
  const Tensor proj = Tensor::randn({2, 3, 5}, rng);
  check_gradients(fc, x, proj);
}

TEST(BatchNorm2d, NormalizesInTrainingMode) {
  Rng rng(11);
  BatchNorm2d bn(4);
  bn.set_training(true);
  const Tensor x = Tensor::randn({8, 4, 3, 3}, rng, 5.0F);
  const Tensor y = bn.forward(x);
  // Per-channel mean ~0, var ~1.
  for (std::int64_t c = 0; c < 4; ++c) {
    double sum = 0.0, sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 8; ++n) {
      for (std::int64_t p = 0; p < 9; ++p) {
        const float v = y.data()[(n * 4 + c) * 9 + p];
        sum += v;
        sq += v * v;
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(12);
  BatchNorm2d bn(2);
  bn.set_training(true);
  // Warm running stats on a wide distribution.
  for (int i = 0; i < 50; ++i) bn.forward(Tensor::randn({16, 2, 2, 2}, rng, 3.0F));
  bn.set_training(false);
  const Tensor x = Tensor::randn({4, 2, 2, 2}, rng, 3.0F);
  const Tensor y = bn.forward(x);
  // Eval output uses running stats: y ≈ x / 3 approximately, not exactly
  // normalized per batch.
  double sq = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) sq += static_cast<double>(y[i]) * y[i];
  EXPECT_NEAR(sq / static_cast<double>(y.numel()), 1.0, 0.5);
}

TEST(BatchNorm2d, GradCheckTrainingMode) {
  Rng rng(13);
  BatchNorm2d bn(3);
  bn.set_training(true);
  const Tensor x = Tensor::randn({4, 3, 3, 3}, rng);
  const Tensor proj = Tensor::randn({4, 3, 3, 3}, rng);
  check_gradients(bn, x, proj, 1e-3, 3e-2);
}

TEST(BatchNorm2d, GradCheckEvalMode) {
  Rng rng(14);
  BatchNorm2d bn(3);
  bn.set_training(true);
  bn.forward(Tensor::randn({8, 3, 4, 4}, rng));
  bn.set_training(false);
  const Tensor x = Tensor::randn({2, 3, 3, 3}, rng);
  const Tensor proj = Tensor::randn({2, 3, 3, 3}, rng);
  check_gradients(bn, x, proj);
}

TEST(BatchNorm2d, RunningStatsNotTrainable) {
  BatchNorm2d bn(2);
  std::vector<ParamRef> params;
  bn.collect_params("", params);
  ASSERT_EQ(params.size(), 4U);
  int trainable = 0;
  for (const auto& p : params) trainable += p.param->trainable ? 1 : 0;
  EXPECT_EQ(trainable, 2);  // gamma, beta only
}

TEST(LayerNorm, NormalizesLastAxis) {
  Rng rng(15);
  LayerNorm ln(16);
  const Tensor x = Tensor::randn({4, 16}, rng, 3.0F);
  const Tensor y = ln.forward(x);
  for (std::int64_t r = 0; r < 4; ++r) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t j = 0; j < 16; ++j) {
      sum += y.data()[r * 16 + j];
      sq += static_cast<double>(y.data()[r * 16 + j]) * y.data()[r * 16 + j];
    }
    EXPECT_NEAR(sum / 16.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 16.0, 1.0, 1e-2);
  }
}

TEST(LayerNorm, GradCheck) {
  Rng rng(16);
  LayerNorm ln(8);
  const Tensor x = Tensor::randn({3, 4, 8}, rng);
  const Tensor proj = Tensor::randn({3, 4, 8}, rng);
  check_gradients(ln, x, proj, 1e-3, 3e-2);
}

class ActivationValueTest : public ::testing::TestWithParam<Act> {};

TEST_P(ActivationValueTest, DerivativeMatchesFiniteDifference) {
  const Act kind = GetParam();
  // Sample points avoiding the exact kink locations of piecewise ops.
  for (float x : {-5.0F, -2.9F, -1.0F, -0.1F, 0.1F, 0.5F, 1.5F, 2.9F, 5.0F}) {
    // Central difference in float32: eps large enough to dominate rounding.
    const double eps = 2e-3;
    const double numeric =
        (act_forward(kind, x + static_cast<float>(eps)) -
         act_forward(kind, x - static_cast<float>(eps))) / (2.0 * eps);
    EXPECT_NEAR(act_backward(kind, x), numeric, 5e-3)
        << act_name(kind) << " at x=" << x;
  }
}

TEST_P(ActivationValueTest, GradCheckAsModule) {
  Rng rng(17);
  Activation act(GetParam());
  const Tensor x = Tensor::randn({2, 10}, rng);
  const Tensor proj = Tensor::randn({2, 10}, rng);
  check_gradients(act, x, proj);
}

// The per-element switch act_forward ran inside every activation loop
// before the loops were made switch-free. Its GELU and SiLU call the host
// libm's std::tanh / std::exp, while act_forward runs the repo's ports
// (tensor/kernels.h): bit-for-bit equality with them assumes glibc's
// fdlibm tanhf and the expf of its FMA build (another libm, or glibc's
// expf on a host without FMA, may differ in the last bit).
float per_element_switch(Act a, float x) {
  switch (a) {
    case Act::kRelu: return x > 0.0F ? x : 0.0F;
    case Act::kRelu6: return x < 0.0F ? 0.0F : (x > 6.0F ? 6.0F : x);
    case Act::kHardSigmoid:
      return x <= -3.0F ? 0.0F : (x >= 3.0F ? 1.0F : x / 6.0F + 0.5F);
    case Act::kHardSwish:
      return x <= -3.0F ? 0.0F : (x >= 3.0F ? x : x * (x + 3.0F) / 6.0F);
    case Act::kGelu: {
      const float inner = 0.7978845608028654F * (x + 0.044715F * x * x * x);
      return 0.5F * x * (1.0F + std::tanh(inner));
    }
    case Act::kSilu: {
      const float s = 1.0F / (1.0F + std::exp(-x));
      return x * s;
    }
  }
  return x;
}

// Bitwise equality, except that any NaN matches any NaN: which operand's
// NaN an instruction propagates (and so its sign) is up to code generation.
bool same_value(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// act_forward_n (Activation::forward and the serving plan's activation
// steps) and act_forward against that switch, bit for bit, on signed
// zeros, NaN, infinities, .5 ties and every kind's breakpoints, out of
// place and in place. Enough elements that the loops vectorize.
TEST_P(ActivationValueTest, SwitchFreeLoopsMatchPerElementSwitch) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0F,  -0.0F,  nan,   -nan,  inf,   -inf,   0.5F,   -0.5F,
                           1.5F,  -1.5F,  2.5F,  -2.5F, 3.0F,  -3.0F,  6.0F,   -6.0F,
                           6.5F,  5.5F,   1e-40F, -1e-40F, 1e30F, -1e30F, 88.5F, -88.5F};
  Rng rng(31);
  for (int i = 0; i < 40; ++i) xs.push_back(static_cast<float>(rng.normal()) * 4.0F);
  const auto n = static_cast<std::int64_t>(xs.size());
  const Act a = GetParam();
  std::vector<float> out(xs.size());
  act_forward_n(a, xs.data(), out.data(), n);
  std::vector<float> in_place = xs;
  act_forward_n(a, in_place.data(), in_place.data(), n);
  Activation layer(a);
  const Tensor y = layer.forward(Tensor({n}, xs));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float want = per_element_switch(a, xs[i]);
    const float single = act_forward(a, xs[i]);
    const float layer_out = y[static_cast<std::int64_t>(i)];
    EXPECT_TRUE(same_value(out[i], want)) << act_name(a) << " x=" << xs[i];
    EXPECT_TRUE(same_value(in_place[i], want)) << act_name(a) << " x=" << xs[i];
    EXPECT_TRUE(same_value(single, want)) << act_name(a) << " x=" << xs[i];
    EXPECT_TRUE(same_value(layer_out, want)) << act_name(a) << " x=" << xs[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationValueTest,
                         ::testing::Values(Act::kRelu, Act::kRelu6, Act::kHardSwish,
                                           Act::kHardSigmoid, Act::kGelu, Act::kSilu));

TEST(Activation, KnownValues) {
  EXPECT_FLOAT_EQ(act_forward(Act::kRelu, -1.0F), 0.0F);
  EXPECT_FLOAT_EQ(act_forward(Act::kRelu6, 7.0F), 6.0F);
  EXPECT_FLOAT_EQ(act_forward(Act::kHardSigmoid, 0.0F), 0.5F);
  EXPECT_FLOAT_EQ(act_forward(Act::kHardSwish, 3.0F), 3.0F);
  EXPECT_FLOAT_EQ(act_forward(Act::kHardSwish, -3.0F), 0.0F);
  EXPECT_NEAR(act_forward(Act::kGelu, 0.0F), 0.0F, 1e-6);
  EXPECT_NEAR(act_forward(Act::kSilu, 0.0F), 0.0F, 1e-6);
}

TEST(MaxPool2d, SelectsMaximum) {
  MaxPool2d pool(2, 2);
  const Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0F);
  // Gradient routes to the argmax only.
  const Tensor g = pool.backward(Tensor({1, 1, 1, 1}, 2.0F));
  EXPECT_FLOAT_EQ(g[0], 0.0F);
  EXPECT_FLOAT_EQ(g[1], 2.0F);
  EXPECT_FLOAT_EQ(g[2], 0.0F);
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(18);
  MaxPool2d pool(2, 2);
  const Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor proj = Tensor::randn({2, 3, 2, 2}, rng);
  check_gradients(pool, x, proj);
}

TEST(GlobalAvgPool, AveragesAndBackprops) {
  GlobalAvgPool pool;
  const Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5F);
  EXPECT_FLOAT_EQ(y[1], 25.0F);
  const Tensor g = pool.backward(Tensor({1, 2}, std::vector<float>{4.0F, 8.0F}));
  EXPECT_FLOAT_EQ(g[0], 1.0F);
  EXPECT_FLOAT_EQ(g[4], 2.0F);
}

TEST(Flatten, RoundTrips) {
  Rng rng(19);
  Flatten flat;
  const Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  const Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor g = flat.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(CrossEntropyLoss, KnownValue) {
  CrossEntropyLoss loss;
  // Uniform logits over 4 classes: loss = ln(4).
  const Tensor logits({2, 4}, 0.0F);
  const double l = loss.forward(logits, {0, 3});
  EXPECT_NEAR(l, std::log(4.0), 1e-6);
}

TEST(CrossEntropyLoss, GradientSumsToZeroPerRow) {
  Rng rng(20);
  CrossEntropyLoss loss;
  const Tensor logits = Tensor::randn({3, 5}, rng);
  loss.forward(logits, {1, 4, 0});
  const Tensor g = loss.backward();
  for (std::int64_t r = 0; r < 3; ++r) {
    double s = 0.0;
    for (std::int64_t j = 0; j < 5; ++j) s += g.data()[r * 5 + j];
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(CrossEntropyLoss, GradientMatchesFiniteDifference) {
  Rng rng(21);
  CrossEntropyLoss loss;
  Tensor logits = Tensor::randn({2, 4}, rng);
  const std::vector<std::int64_t> labels = {2, 0};
  loss.forward(logits, labels);
  const Tensor g = loss.backward();
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(eps);
    const double plus = loss.forward(logits, labels);
    logits[i] = saved - static_cast<float>(eps);
    const double minus = loss.forward(logits, labels);
    logits[i] = saved;
    EXPECT_NEAR(g[i], (plus - minus) / (2.0 * eps), 1e-4);
  }
}

TEST(CrossEntropyLoss, AccuracyCountsArgmax) {
  const Tensor logits({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 1});
  EXPECT_DOUBLE_EQ(CrossEntropyLoss::accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CrossEntropyLoss::accuracy(logits, {0, 0}), 0.5);
}

TEST(CrossEntropyLoss, RejectsBadLabels) {
  CrossEntropyLoss loss;
  const Tensor logits({1, 3});
  EXPECT_THROW(loss.forward(logits, {5}), std::invalid_argument);
  EXPECT_THROW(loss.forward(logits, {0, 1}), std::invalid_argument);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // min ||w||²/2 via a Linear layer feeding a fixed gradient.
  Rng rng(22);
  Linear fc(4, 1, /*bias=*/false);
  fc.init(rng);
  SgdConfig cfg;
  cfg.lr = 0.2F;
  cfg.momentum = 0.0F;
  cfg.weight_decay = 0.0F;
  Sgd opt(fc, cfg);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    // dL/dw = w  (L = ||w||²/2)
    fc.weight_param().grad = fc.weight_param().value;
    opt.step();
  }
  EXPECT_LT(fc.weight_param().value.sq_norm(), 1e-6F);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Linear fc(2, 2, /*bias=*/false);
  fc.weight_param().value.fill(1.0F);
  SgdConfig cfg;
  cfg.lr = 0.1F;
  cfg.momentum = 0.0F;
  cfg.weight_decay = 0.5F;
  Sgd opt(fc, cfg);
  opt.zero_grad();
  opt.step();
  for (float v : fc.weight_param().value.flat()) EXPECT_FLOAT_EQ(v, 0.95F);
}

TEST(Sgd, ClipGradNorm) {
  Linear fc(3, 1, /*bias=*/false);
  Sgd opt(fc, {});
  fc.weight_param().grad.fill(10.0F);
  const double pre = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(pre, 10.0 * std::sqrt(3.0), 1e-3);
  double post_sq = fc.weight_param().grad.sq_norm();
  EXPECT_NEAR(std::sqrt(post_sq), 1.0, 1e-3);
}

TEST(Sgd, CosineScheduleEndpoints) {
  Linear fc(2, 1);
  Sgd opt(fc, {});
  opt.cosine_lr(1.0F, 0, 100);
  EXPECT_NEAR(opt.lr(), 1.0F, 1e-6);
  opt.cosine_lr(1.0F, 50, 100);
  EXPECT_NEAR(opt.lr(), 0.5F, 1e-6);
  opt.cosine_lr(1.0F, 100, 100);
  EXPECT_NEAR(opt.lr(), 0.0F, 1e-6);
}

TEST(Identity, PassesThroughBothDirections) {
  Rng rng(27);
  Identity id;
  const Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor y = id.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
  const Tensor g = id.backward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(g[i], x[i]);
}

TEST(Sequential, ReplaceChildSwapsModuleAndKeepsName) {
  Rng rng(28);
  Sequential seq;
  seq.emplace_named<Linear>("fc", 4, 4)->init(rng);
  seq.emplace_named<Activation>("act", Act::kRelu);
  seq.replace_child(1, std::make_unique<Identity>());
  EXPECT_EQ(seq.child(1).type_name(), "Identity");
  EXPECT_EQ(seq.child_name(1), "act");
  EXPECT_THROW(seq.replace_child(5, std::make_unique<Identity>()), std::out_of_range);
}

TEST(Conv2d, FoldScaleShiftMatchesManualAffine) {
  Rng rng(29);
  Conv2d conv(2, 3, 1, 1, 0, 1, /*bias=*/false);
  conv.init(rng);
  const Tensor x = Tensor::randn({2, 2, 3, 3}, rng);
  const Tensor before = conv.forward(x);
  const std::vector<float> scale = {2.0F, 0.5F, -1.0F};
  const std::vector<float> shift = {0.1F, -0.2F, 0.3F};
  conv.fold_scale_shift(scale, shift);
  const Tensor after = conv.forward(x);
  for (std::int64_t s = 0; s < 2; ++s) {
    for (std::int64_t c = 0; c < 3; ++c) {
      for (std::int64_t p = 0; p < 9; ++p) {
        const float expect = before.data()[(s * 3 + c) * 9 + p] *
                                 scale[static_cast<std::size_t>(c)] +
                             shift[static_cast<std::size_t>(c)];
        EXPECT_NEAR(after.data()[(s * 3 + c) * 9 + p], expect, 1e-5F);
      }
    }
  }
  EXPECT_THROW(conv.fold_scale_shift(std::vector<float>{1.0F}, shift), std::invalid_argument);
}

TEST(Sequential, StateDictRoundTrip) {
  Rng rng(24);
  Sequential a;
  a.emplace_named<Linear>("fc1", 4, 4)->init(rng);
  a.emplace_named<Linear>("fc2", 4, 2)->init(rng);
  Sequential b;
  b.emplace_named<Linear>("fc1", 4, 4);
  b.emplace_named<Linear>("fc2", 4, 2);
  load_state(b, extract_state(a));
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(Sequential, LoadStateRejectsMissingOrMismatched) {
  Sequential a;
  a.emplace_named<Linear>("fc", 4, 4);
  EXPECT_THROW(load_state(a, {}), std::runtime_error);
  clado::tensor::StateDict bad;
  bad.emplace("fc.weight", Tensor({2, 2}));
  bad.emplace("fc.bias", Tensor({4}));
  EXPECT_THROW(load_state(a, bad), std::runtime_error);
}

}  // namespace
}  // namespace clado::nn
