#include "clado/quant/quantizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "clado/quant/qat.h"
#include "clado/nn/layers.h"
#include "clado/tensor/rng.h"

namespace clado::quant {
namespace {

using clado::tensor::Rng;
using clado::tensor::Tensor;

TEST(SymmetricQuant, ExactGridValuesAreFixedPoints) {
  // Values already on the quantization grid must survive unchanged.
  const float scale = 0.5F;
  Tensor w({4}, std::vector<float>{-1.0F, -0.5F, 0.0F, 1.5F});
  const Tensor q = quantize_symmetric(w, 4, scale);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(q[i], w[i]);
}

TEST(SymmetricQuant, ClipsToRepresentableRange) {
  // 2-bit signed: levels {-2, -1, 0, 1} x scale.
  const float scale = 1.0F;
  Tensor w({3}, std::vector<float>{-10.0F, 10.0F, 0.4F});
  const Tensor q = quantize_symmetric(w, 2, scale);
  EXPECT_FLOAT_EQ(q[0], -2.0F);
  EXPECT_FLOAT_EQ(q[1], 1.0F);
  EXPECT_FLOAT_EQ(q[2], 0.0F);
}

TEST(SymmetricQuant, LevelCountRespectsBitWidth) {
  Rng rng(1);
  const Tensor w = Tensor::randn({4096}, rng);
  for (int bits : {2, 3, 4}) {
    const Tensor q = quantize_symmetric_mse(w, bits);
    std::set<float> levels(q.flat().begin(), q.flat().end());
    EXPECT_LE(static_cast<int>(levels.size()), 1 << bits) << bits << " bits";
  }
}

TEST(SymmetricQuant, MseScaleBeatsNaiveMaxScale) {
  // On heavy-tailed weights, clipping outliers must reduce MSE at low bits.
  Rng rng(2);
  Tensor w = Tensor::randn({4096}, rng);
  w[0] = 12.0F;  // outlier
  const int bits = 3;
  const float qmax = std::ldexp(1.0F, bits - 1) - 1.0F;
  float amax = 0.0F;
  for (float v : w.flat()) amax = std::max(amax, std::abs(v));
  const double naive = quant_mse_symmetric(w, bits, amax / qmax);
  const double tuned = quant_mse_symmetric(w, bits, mse_optimal_scale_symmetric(w, bits));
  EXPECT_LT(tuned, naive * 0.8);
}

TEST(SymmetricQuant, MseScaleIsGridOptimal) {
  // The returned scale must be at least as good as every grid candidate.
  Rng rng(3);
  const Tensor w = Tensor::randn({1024}, rng);
  const int bits = 4;
  const float best = mse_optimal_scale_symmetric(w, bits);
  const double best_mse = quant_mse_symmetric(w, bits, best);
  for (float s = best * 0.9F; s <= best * 1.1F; s += best * 0.02F) {
    // Allow tiny numerical slack around the grid optimum.
    EXPECT_GE(quant_mse_symmetric(w, bits, s) + 1e-9, best_mse * 0.98);
  }
}

class BitMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(BitMonotoneTest, HigherBitsNeverWorseMse) {
  const int bits = GetParam();
  Rng rng(4 + bits);
  const Tensor w = Tensor::randn({2048}, rng);
  const Tensor q_low = quantize_symmetric_mse(w, bits);
  const Tensor q_high = quantize_symmetric_mse(w, bits + 1);
  double mse_low = 0.0, mse_high = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    mse_low += std::pow(static_cast<double>(q_low[i]) - w[i], 2);
    mse_high += std::pow(static_cast<double>(q_high[i]) - w[i], 2);
  }
  EXPECT_LE(mse_high, mse_low * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Bits2To7, BitMonotoneTest, ::testing::Range(2, 8));

TEST(PerChannelAffine, ConstantChannelIsExact) {
  Tensor w({2, 4}, std::vector<float>{3.0F, 3.0F, 3.0F, 3.0F, -1.0F, 0.0F, 1.0F, 2.0F});
  const Tensor q = quantize_per_channel_affine_mse(w, 4);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(q[i], 3.0F);
}

TEST(PerChannelAffine, BeatsPerTensorOnScaleImbalancedChannels) {
  // Channel 0 in [-0.01, 0.01], channel 1 in [-10, 10]: a shared scale
  // destroys channel 0.
  Rng rng(5);
  Tensor w({2, 512});
  for (std::int64_t i = 0; i < 512; ++i) {
    w.data()[i] = static_cast<float>(rng.normal()) * 0.01F;
    w.data()[512 + i] = static_cast<float>(rng.normal()) * 10.0F;
  }
  const Tensor q_pc = quantize_per_channel_affine_mse(w, 4);
  const Tensor q_pt = quantize_symmetric_mse(w, 4);
  double mse_pc = 0.0, mse_pt = 0.0;
  for (std::int64_t i = 0; i < 512; ++i) {  // channel 0 error only
    mse_pc += std::pow(static_cast<double>(q_pc[i]) - w[i], 2);
    mse_pt += std::pow(static_cast<double>(q_pt[i]) - w[i], 2);
  }
  EXPECT_LT(mse_pc, mse_pt * 0.1);
}

TEST(PerChannelAffine, AsymmetricRangeUsesAllLevels) {
  // All-positive weights: affine can spend every level on [min, max].
  Rng rng(6);
  Tensor w({1, 2048});
  for (auto& v : w.flat()) v = static_cast<float>(rng.uniform(1.0, 2.0));
  const Tensor q_affine = quantize_per_channel_affine_mse(w, 3);
  const Tensor q_sym = quantize_symmetric_mse(w, 3);
  double mse_a = 0.0, mse_s = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    mse_a += std::pow(static_cast<double>(q_affine[i]) - w[i], 2);
    mse_s += std::pow(static_cast<double>(q_sym[i]) - w[i], 2);
  }
  EXPECT_LT(mse_a, mse_s * 0.5);
}

TEST(AffineQParams, ZeroPointStaysOnIntegerGrid) {
  const float levels = 7.0F;  // 3-bit
  // All-positive range: without the zero-nudge, zp = round(-2/scale) < 0
  // would escape the grid.
  const AffineQParams pos = affine_qparams(2.0F, 3.0F, 3);
  EXPECT_EQ(pos.zero_point, 0.0F);
  EXPECT_EQ(pos.lo, 0.0F);
  EXPECT_GE(pos.hi, 3.0F);
  // All-negative range: zp must clamp to the top of the grid.
  const AffineQParams neg = affine_qparams(-3.0F, -2.0F, 3);
  EXPECT_EQ(neg.zero_point, levels);
  EXPECT_EQ(neg.hi, 0.0F);
  EXPECT_LE(neg.lo, -3.0F);
  // Straddling range: zp lands strictly inside the grid.
  const AffineQParams mid = affine_qparams(-1.0F, 1.0F, 3);
  EXPECT_GE(mid.zero_point, 0.0F);
  EXPECT_LE(mid.zero_point, levels);
  EXPECT_EQ(mid.zero_point, std::nearbyint(mid.zero_point));
  // Representable endpoints are consistent with (q - zp) * scale.
  EXPECT_FLOAT_EQ(mid.lo, (0.0F - mid.zero_point) * mid.scale);
  EXPECT_FLOAT_EQ(mid.hi, (levels - mid.zero_point) * mid.scale);
}

TEST(PerChannelAffine, AllPositiveChannelIsCovered) {
  // Regression: the affine fake-quant used an unclamped zero-point, so an
  // all-positive channel dequantized onto a grid shifted off the data —
  // every value came back with error about the size of the range.
  Rng rng(24);
  Tensor w({2, 512});
  for (std::int64_t i = 0; i < 512; ++i) {
    w.data()[i] = static_cast<float>(rng.uniform(2.0, 5.0));  // channel 0: positive
    w.data()[512 + i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const Tensor q = quantize_per_channel_affine_mse(w, 3);
  float max_err = 0.0F;
  for (std::int64_t i = 0; i < 512; ++i) {
    max_err = std::max(max_err, std::abs(q[i] - w[i]));
  }
  // The zero-nudged 3-bit grid over [0, 5] has step 5/7 ~ 0.71; the broken
  // unclamped grid left errors around the full range (~2).
  EXPECT_LT(max_err, 0.6F);
}

class AllSchemesTest : public ::testing::TestWithParam<WeightScheme> {};

TEST_P(AllSchemesTest, DispatchesAndReducesErrorWithBits) {
  Rng rng(23);
  const Tensor w = Tensor::randn({4, 256}, rng);
  auto mse_at = [&](int bits) {
    const Tensor q = quantize_weight(w, bits, GetParam());
    double mse = 0.0;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      mse += std::pow(static_cast<double>(q[i]) - w[i], 2);
    }
    return mse;
  };
  EXPECT_LT(mse_at(8), mse_at(4));
  EXPECT_LT(mse_at(4), mse_at(2));
  EXPECT_LT(mse_at(8), 1e-3 * w.numel());  // 8-bit is near-lossless
}

INSTANTIATE_TEST_SUITE_P(Schemes, AllSchemesTest,
                         ::testing::Values(WeightScheme::kPerTensorSymmetric,
                                           WeightScheme::kPerChannelAffine));

TEST(Quantizer, RejectsBadBits) {
  Tensor w({4}, 1.0F);
  EXPECT_THROW(quantize_symmetric_mse(w, 0), std::invalid_argument);
  EXPECT_THROW(quantize_symmetric_mse(w, 17), std::invalid_argument);
  EXPECT_THROW(quantize_symmetric(w, 4, -1.0F), std::invalid_argument);
}

TEST(Quantizer, WeightBytes) {
  EXPECT_DOUBLE_EQ(weight_bytes(1000, 8), 1000.0);
  EXPECT_DOUBLE_EQ(weight_bytes(1000, 4), 500.0);
  EXPECT_DOUBLE_EQ(weight_bytes(1000, 2), 250.0);
}

// --- assignment helpers (qat.h) -------------------------------------------

std::vector<clado::nn::QuantLayerRef> two_layers(clado::nn::Linear& a, clado::nn::Linear& b) {
  std::vector<clado::nn::QuantLayerRef> refs;
  a.collect_quant_layers("a", refs);
  b.collect_quant_layers("b", refs);
  return refs;
}

TEST(WeightSnapshot, RestoresOnDestruction) {
  Rng rng(7);
  clado::nn::Linear a(8, 8), b(8, 8);
  a.init(rng);
  b.init(rng);
  const Tensor wa = a.weight_param().value;
  {
    auto refs = two_layers(a, b);
    WeightSnapshot snap(refs);
    bake_weights(refs, {2, 2}, WeightScheme::kPerTensorSymmetric);
    // 2-bit baking must change something.
    bool changed = false;
    for (std::int64_t i = 0; i < wa.numel(); ++i) {
      if (a.weight_param().value[i] != wa[i]) changed = true;
    }
    EXPECT_TRUE(changed);
  }
  for (std::int64_t i = 0; i < wa.numel(); ++i) EXPECT_EQ(a.weight_param().value[i], wa[i]);
}

TEST(BakeWeights, ZeroBitsLeavesLayerFp32) {
  Rng rng(9);
  clado::nn::Linear a(8, 8), b(8, 8);
  a.init(rng);
  b.init(rng);
  const Tensor wa = a.weight_param().value;
  auto refs = two_layers(a, b);
  bake_weights(refs, {0, 2}, WeightScheme::kPerTensorSymmetric);
  for (std::int64_t i = 0; i < wa.numel(); ++i) EXPECT_EQ(a.weight_param().value[i], wa[i]);
}

TEST(BakeWeights, SizeMismatchThrows) {
  Rng rng(10);
  clado::nn::Linear a(4, 4), b(4, 4);
  auto refs = two_layers(a, b);
  EXPECT_THROW(bake_weights(refs, {8}, WeightScheme::kPerTensorSymmetric),
               std::invalid_argument);
}

TEST(FakeQuant, ForwardQuantizedBackwardStraightThrough) {
  Rng rng(11);
  clado::nn::Linear fc(4, 4, /*bias=*/false);
  fc.init(rng);
  std::vector<clado::nn::QuantLayerRef> refs;
  fc.collect_quant_layers("fc", refs);
  install_fake_quant(refs, {2}, WeightScheme::kPerTensorSymmetric);

  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor y_fake = fc.forward(x);

  // Output must equal the output with baked 2-bit weights.
  const Tensor w_fp = fc.weight_param().value;
  fc.weight_param().value = quantize_symmetric_mse(w_fp, 2);
  clear_fake_quant(refs);
  const Tensor y_baked = fc.forward(x);
  for (std::int64_t i = 0; i < y_fake.numel(); ++i) EXPECT_FLOAT_EQ(y_fake[i], y_baked[i]);
  fc.weight_param().value = w_fp;

  // Gradient accumulates on the fp32 master weight (STE): nonzero grads.
  install_fake_quant(refs, {2}, WeightScheme::kPerTensorSymmetric);
  fc.weight_param().zero_grad();
  fc.forward(x);
  fc.backward(Tensor::randn({2, 4}, rng));
  EXPECT_GT(fc.weight_param().grad.sq_norm(), 0.0F);
  clear_fake_quant(refs);
}

TEST(AssignmentBytes, MatchesManualSum) {
  Rng rng(12);
  clado::nn::Linear a(16, 8), b(8, 4);  // 128 and 32 weights
  auto refs = two_layers(a, b);
  EXPECT_DOUBLE_EQ(assignment_bytes(refs, {4, 8}), 128 * 0.5 + 32 * 1.0);
  EXPECT_DOUBLE_EQ(uniform_bytes(refs, 8), 160.0);
  EXPECT_DOUBLE_EQ(uniform_bytes(refs, 2), 40.0);
}

}  // namespace
}  // namespace clado::quant
