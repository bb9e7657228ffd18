#include "clado/quant/int8.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "clado/nn/layers.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"
#include "int8_oracle.h"

namespace clado::quant {
namespace {

using clado::tensor::Rng;
using clado::tensor::Tensor;

TEST(QParams, ZeroIsExactlyRepresentable) {
  for (auto [lo, hi] : {std::pair{-1.0F, 1.0F}, {0.0F, 5.0F}, {-3.0F, 0.5F}, {0.2F, 0.9F}}) {
    const QParams p = choose_qparams(lo, hi);
    // q(0) = zero_point must be in int8 range, and dequant(zp) == 0.
    EXPECT_GE(p.zero_point, -128);
    EXPECT_LE(p.zero_point, 127);
    const float zero = (static_cast<float>(p.zero_point) - p.zero_point) * p.scale;
    EXPECT_EQ(zero, 0.0F);
  }
}

// Regression: the degenerate-range guard used an ABSOLUTE 1e-8 nudge, which
// rounds away entirely at large magnitudes (lo + 1e-8F == lo for |lo| >= ~1
// in fp32). A constant large-magnitude tensor then got scale == 0 and every
// code quantized through a division by zero to inf/NaN.
TEST(QParams, DegenerateRangeAtLargeMagnitudeYieldsFiniteScale) {
  for (const float v : {1e6F, -1e6F, 3e7F, -4.5e8F, 1.0F, -1.0F}) {
    const QParams p = choose_qparams(v, v);
    EXPECT_TRUE(std::isfinite(p.scale)) << "v=" << v;
    EXPECT_GT(p.scale, 0.0F) << "v=" << v;
    EXPECT_GE(p.zero_point, -128);
    EXPECT_LE(p.zero_point, 127);
  }
  // The original absolute epsilon is preserved for genuinely tiny ranges.
  const QParams tiny = choose_qparams(0.0F, 0.0F);
  EXPECT_GT(tiny.scale, 0.0F);
  EXPECT_TRUE(std::isfinite(tiny.scale));
}

TEST(QuantizeInt8, LargeMagnitudeConstantTensorRoundTripsFinite) {
  const Tensor x({8}, 2.5e7F);  // constant => min == max == 2.5e7
  const QTensor q = quantize_int8_minmax(x);
  EXPECT_TRUE(std::isfinite(q.scale));
  EXPECT_GT(q.scale, 0.0F);
  const Tensor back = dequantize(q);
  for (std::int64_t i = 0; i < back.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(back[i])) << i;
    // A one-point range is representable to within one quantization step.
    EXPECT_NEAR(back[i], x[i], q.scale + std::abs(x[i]) * 1e-5F) << i;
  }
}

TEST(QuantizeInt8, RoundTripErrorBoundedByHalfStep) {
  Rng rng(1);
  const Tensor x = Tensor::uniform({4096}, rng, -2.0F, 3.0F);
  const QTensor q = quantize_int8_minmax(x);
  const Tensor back = dequantize(q);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(back[i] - x[i]), 0.5F * q.scale + 1e-6F);
  }
}

TEST(QuantizeInt8, SaturatesOutOfRange) {
  QParams p{0.1F, 0};
  const Tensor x({2}, std::vector<float>{100.0F, -100.0F});
  const QTensor q = quantize_int8(x, p);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], -128);
}

TEST(GemmS8, MatchesFloatReferenceOnDequantizedValues) {
  Rng rng(2);
  const std::int64_t m = 7, k = 33, n = 5;
  const Tensor a = Tensor::uniform({m, k}, rng, -1.0F, 2.0F);
  const Tensor b = Tensor::uniform({n, k}, rng, -0.5F, 0.5F);
  const QTensor qa = quantize_int8_minmax(a);
  const QTensor qb = quantize_int8_minmax(b);

  std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
  clado::tensor::kernels::gemm_s8s8_s32(m, n, k, qa.data.data(), qa.zero_point, qb.data.data(),
                                        qb.zero_point, acc.data());

  // Reference: float GEMM over the dequantized tensors. The int32 path
  // must match exactly (same discrete values, exact integer arithmetic).
  const Tensor da = dequantize(qa);
  const Tensor db = dequantize(qb);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double ref = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        ref += static_cast<double>(da.data()[i * k + p]) * db.data()[j * k + p];
      }
      const double got =
          static_cast<double>(acc[static_cast<std::size_t>(i * n + j)]) * qa.scale * qb.scale;
      EXPECT_NEAR(got, ref, 1e-4 * std::max(1.0, std::abs(ref))) << i << "," << j;
    }
  }
}

TEST(QLinear, MatchesFloatLinearOnQuantizedOperands) {
  Rng rng(3);
  const std::int64_t m = 4, k = 16, n = 6;
  const Tensor x = Tensor::randn({m, k}, rng);
  const Tensor w = Tensor::randn({n, k}, rng, 0.3F);
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (auto& b : bias) b = static_cast<float>(rng.normal());

  const QTensor qx = quantize_int8_minmax(x);
  const QTensor qw = quantize_int8_minmax(w);
  const Tensor got = qlinear(qx, qw, bias.data());

  // Reference: fp32 linear on the dequantized operands.
  const Tensor dx = dequantize(qx);
  const Tensor dw = dequantize(qw);
  Tensor ref({m, n});
  clado::tensor::gemm(false, true, m, n, k, 1.0F, dx.data(), dw.data(), 0.0F, ref.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) ref.data()[i * n + j] += bias[static_cast<std::size_t>(j)];
  }
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-4F + 1e-4F * std::abs(ref[i]));
  }
}

TEST(QConv2d, MatchesFloatConvOnQuantizedOperands) {
  Rng rng(4);
  const std::int64_t n = 2, c = 3, h = 6, wdt = 6, o = 4, kern = 3, stride = 2, pad = 1;
  const Tensor x = Tensor::randn({n, c, h, wdt}, rng);
  const Tensor w = Tensor::randn({o, c, kern, kern}, rng, 0.2F);
  std::vector<float> bias(static_cast<std::size_t>(o), 0.1F);

  const QTensor qx = quantize_int8_minmax(x);
  const QTensor qw = quantize_int8_minmax(w);
  const Tensor got = qconv2d(qx, qw, bias.data(), stride, pad);

  // Reference: float Conv2d over the dequantized tensors.
  clado::nn::Conv2d ref_conv(c, o, kern, stride, pad, 1, /*bias=*/true);
  ref_conv.weight_param().value = dequantize(qw);
  std::vector<clado::nn::ParamRef> params;
  ref_conv.collect_params("", params);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    params[1].param->value[static_cast<std::int64_t>(i)] = bias[i];
  }
  const Tensor ref = ref_conv.forward(dequantize(qx));

  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 2e-4F + 2e-4F * std::abs(ref[i])) << i;
  }
}

TEST(QConv2d, PaddingUsesZeroPointNotZeroCode) {
  // With an all-positive input range the zero point sits at -128; padded
  // positions must dequantize to real 0, not to scale * 128.
  Rng rng(5);
  Tensor x({1, 1, 2, 2});
  for (auto& v : x.flat()) v = static_cast<float>(rng.uniform(1.0, 2.0));
  Tensor w({1, 1, 3, 3}, 1.0F);
  const QTensor qx = quantize_int8_minmax(x);
  const QTensor qw = quantize_int8_minmax(w);
  const Tensor got = qconv2d(qx, qw, nullptr, 1, 1);

  clado::nn::Conv2d ref_conv(1, 1, 3, 1, 1, 1, false);
  ref_conv.weight_param().value = dequantize(qw);
  const Tensor ref = ref_conv.forward(dequantize(qx));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-3F + 1e-3F * std::abs(ref[i]));
  }
}

// Geometry sweep: the int8 conv must match the float reference across
// strides, paddings, and kernel sizes (each with its own padding edge
// cases in the int8 im2col).
class QConvGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(QConvGeometryTest, MatchesFloatReference) {
  const auto [kern, stride, pad] = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(kern * 10 + stride * 3 + pad));
  const std::int64_t n = 2, c = 2, h = 8, wdt = 7, o = 3;
  const Tensor x = Tensor::randn({n, c, h, wdt}, rng);
  const Tensor w = Tensor::randn({o, c, kern, kern}, rng, 0.3F);
  const QTensor qx = quantize_int8_minmax(x);
  const QTensor qw = quantize_int8_minmax(w);
  const Tensor got = qconv2d(qx, qw, nullptr, stride, pad);

  clado::nn::Conv2d ref_conv(c, o, kern, stride, pad, 1, false);
  ref_conv.weight_param().value = dequantize(qw);
  const Tensor ref = ref_conv.forward(dequantize(qx));
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 3e-4F + 3e-4F * std::abs(ref[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, QConvGeometryTest,
                         ::testing::Values(std::tuple{1L, 1L, 0L}, std::tuple{3L, 1L, 1L},
                                           std::tuple{3L, 2L, 1L}, std::tuple{5L, 2L, 2L},
                                           std::tuple{3L, 1L, 0L}, std::tuple{1L, 2L, 0L}));

// Regression: qconv2d used to accept stride <= 0 (division by zero in
// conv_out_size) and kernels larger than the padded input (negative output
// extent cast through size_t into a huge allocation).
TEST(QConv2d, RejectsInvalidGeometry) {
  Rng rng(7);
  const Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  const Tensor w = Tensor::randn({3, 2, 3, 3}, rng);
  const QTensor qx = quantize_int8_minmax(x);
  const QTensor qw = quantize_int8_minmax(w);

  EXPECT_THROW(qconv2d(qx, qw, nullptr, /*stride=*/0, /*pad=*/1), std::invalid_argument);
  EXPECT_THROW(qconv2d(qx, qw, nullptr, /*stride=*/-2, /*pad=*/1), std::invalid_argument);
  EXPECT_THROW(qconv2d(qx, qw, nullptr, /*stride=*/1, /*pad=*/-1), std::invalid_argument);

  const Tensor wbig = Tensor::randn({3, 2, 7, 7}, rng);  // 7 > 5 + 2*0
  const QTensor qwbig = quantize_int8_minmax(wbig);
  EXPECT_THROW(qconv2d(qx, qwbig, nullptr, /*stride=*/1, /*pad=*/0), std::invalid_argument);
  // With enough padding the same kernel is legal again.
  EXPECT_NO_THROW(qconv2d(qx, qwbig, nullptr, /*stride=*/1, /*pad=*/1));
}

TEST(Int8EndToEnd, FakeQuantAccuracyClaimHoldsInIntegerArithmetic) {
  // The statement the kernels certify: running a linear layer in pure
  // integer arithmetic reproduces the fake-quant float simulation.
  Rng rng(6);
  const std::int64_t m = 8, k = 32, n = 10;
  const Tensor x = Tensor::randn({m, k}, rng);
  const Tensor w = Tensor::randn({n, k}, rng, 0.2F);

  const QTensor qx = quantize_int8_minmax(x);
  const QTensor qw = quantize_int8_minmax(w);

  // Fake-quant simulation: dequantized operands through float GEMM.
  const Tensor fx = dequantize(qx);
  const Tensor fw = dequantize(qw);
  Tensor fake({m, n});
  clado::tensor::gemm(false, true, m, n, k, 1.0F, fx.data(), fw.data(), 0.0F, fake.data());

  const Tensor integer = qlinear(qx, qw, nullptr);
  for (std::int64_t i = 0; i < fake.numel(); ++i) {
    EXPECT_NEAR(integer[i], fake[i], 1e-4F + 1e-4F * std::abs(fake[i]));
  }
}

}  // namespace
}  // namespace clado::quant
