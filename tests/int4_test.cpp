// Zero-point grid invariants and the quantize / requant arithmetic of the
// integer path.
//
// The all-negative zero-point grid invariants of the s8 and s4 ranges,
// quantize_f32_s8 across kernel levels, and the multiply-then-add of
// requant_s32_f32 (the tests' reference for qconv2d_s8's fused epilogue).
// The serving path's int4 layers run qconv2d_s8 on int8 codes in [-8, 7];
// its cross-level sweep lives in gemm_kernels_test, and its bit-identity
// with the int8 reference in backend_test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "clado/quant/int8.h"
#include "clado/quant/quantizer.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"
#include "int8_oracle.h"

namespace {

using clado::tensor::Rng;
using clado::tensor::Tensor;
namespace kernels = clado::tensor::kernels;

// ---- zero-point grid invariants (all-negative ranges) ----------------------

TEST(QParams, AllNegativeRangeKeepsZeroPointOnSignedInt8Grid) {
  // An all-negative range drives the pre-clamp zero point to its positive
  // extreme; the clamp must leave it on the grid so the im2col padding code
  // (a literal int8 cast) still encodes "real 0".
  for (const auto& [lo, hi] : {std::pair<float, float>{-3.7F, -0.5F},
                              {-1e6F, -10.0F},
                              {-0.25F, -0.125F}}) {
    const clado::quant::QParams p = clado::quant::choose_qparams(lo, hi);
    EXPECT_GE(p.zero_point, -128);
    EXPECT_LE(p.zero_point, 127);
    // Real 0 maps onto an exactly representable code.
    const float zero_code = std::nearbyint(0.0F / p.scale) + static_cast<float>(p.zero_point);
    EXPECT_EQ(zero_code, static_cast<float>(p.zero_point));
  }
}

TEST(QParams, AllNegativeTensorQuantizesWithoutLeavingGrid) {
  Rng rng(7);
  Tensor x = Tensor::randn({64}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = -std::abs(x[i]) - 0.5F;
  const clado::quant::QTensor q = clado::quant::quantize_int8_minmax(x);
  // Dequantized values must be finite and the codes saturating-clamped.
  const Tensor back = clado::quant::dequantize(q);
  for (std::int64_t i = 0; i < back.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(back[i]));
    EXPECT_LE(back[i], 0.0F + q.scale);  // within one step of the range
  }
}

TEST(QParams, AffineQParamsHoldsGridInvariantAtS4Range) {
  // The same invariant at the 4-bit range (satellite regression alongside
  // the int4 path): zero point integral and inside [0, 15].
  for (const auto& [lo, hi] : {std::pair<float, float>{-3.7F, -0.5F},
                              {-100.0F, -1.0F},
                              {0.5F, 3.0F},
                              {-2.0F, 2.0F}}) {
    const clado::quant::AffineQParams p = clado::quant::affine_qparams(lo, hi, 4);
    EXPECT_EQ(p.zero_point, std::nearbyint(p.zero_point));
    EXPECT_GE(p.zero_point, 0.0F);
    EXPECT_LE(p.zero_point, 15.0F);
    EXPECT_GT(p.scale, 0.0F);
  }
}

// ---- quantize_f32_s8 / requant_s32_f32 --------------------------------------

TEST(QuantizeKernel, LevelsBitExactIncludingEdgeValues) {
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host/build";
  Rng rng(17);
  for (const std::int64_t count : {1, 7, 8, 9, 64, 257}) {
    Tensor x = Tensor::randn({count}, rng);
    // Salt in values that stress rounding ties, saturation and huge
    // magnitudes (the float-domain clamp path).
    x[0] = 0.5F;
    if (count > 2) x[1] = -3.5e8F;
    if (count > 3) x[2] = 3.99e9F;
    if (count > 4) x[3] = -2.5F;
    const float inv = 3.17F;
    const std::int32_t zp = -7;
    std::vector<std::int8_t> scalar(static_cast<std::size_t>(count), 0);
    std::vector<std::int8_t> avx2(static_cast<std::size_t>(count), 0);
    kernels::quantize_f32_s8(kernels::Level::kScalar, count, x.data(), inv, zp, scalar.data());
    kernels::quantize_f32_s8(kernels::Level::kAvx2, count, x.data(), inv, zp, avx2.data());
    for (std::int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(scalar[static_cast<std::size_t>(i)], avx2[static_cast<std::size_t>(i)])
          << "count " << count << " idx " << i << " x=" << x[i];
    }
  }
}

TEST(RequantKernel, MultipliesThenAddsWithAndWithoutBias) {
  Rng rng(19);
  for (const auto& [rows, n] : {std::pair<int, int>{1, 1}, {3, 7}, {2, 8}, {5, 19}}) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * n));
    for (auto& v : acc) v = static_cast<std::int32_t>(rng.uniform_int(2000001)) - 1000000;
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (auto& b : bias) b = static_cast<float>(static_cast<double>(rng.uniform_int(100)) / 7.0 - 5.0);
    const float rescale = 0.0123F;
    const float* bias_cases[2] = {nullptr, bias.data()};
    for (const float* bp : bias_cases) {
      std::vector<float> got(static_cast<std::size_t>(rows * n), 0.0F);
      kernels::requant_s32_f32(rows, n, acc.data(), rescale, bp, got.data());
      for (int i = 0; i < rows * n; ++i) {
        // The product is rounded to fp32 before the bias joins it.
        const float scaled = rescale * static_cast<float>(acc[static_cast<std::size_t>(i)]);
        const float want = bp != nullptr ? scaled + bp[i % n] : scaled;
        ASSERT_EQ(got[static_cast<std::size_t>(i)], want)
            << "rows=" << rows << " n=" << n << " bias=" << (bp != nullptr);
      }
    }
  }
}

TEST(QuantizeKernel, MatchesQuantizeInt8Reference) {
  // quantize_int8 now routes through the kernel; pin the arithmetic to the
  // historical definition so a kernel regression cannot drift it.
  Rng rng(23);
  const Tensor x = Tensor::randn({129}, rng);
  const clado::quant::QParams p = clado::quant::choose_qparams(x.min(), x.max());
  const clado::quant::QTensor q = clado::quant::quantize_int8(x, p);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = std::nearbyint(x[i] / p.scale) + static_cast<float>(p.zero_point);
    const float want = std::min(127.0F, std::max(-128.0F, v));
    ASSERT_EQ(static_cast<float>(q.data[static_cast<std::size_t>(i)]), want) << i;
  }
}

}  // namespace
