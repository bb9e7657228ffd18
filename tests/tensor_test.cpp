#include "clado/tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "clado/tensor/check.h"
#include "clado/tensor/ops.h"

namespace clado::tensor {
namespace {

// CLADO_CHECK is compiled out in plain Release; the abort-on-violation
// contract is only testable when checks are live (Debug / sanitizer builds).
#if defined(CLADO_ENABLE_CHECKS) || !defined(NDEBUG)
TEST(TensorCheckDeathTest, AtOutOfBoundsAborts) {
  Tensor t({2, 2});
  EXPECT_DEATH((void)t.at({2, 0}), "CLADO_CHECK failed");
}

TEST(TensorCheckDeathTest, AtRankMismatchAborts) {
  Tensor t({2, 2});
  EXPECT_DEATH((void)t.at({0}), "CLADO_CHECK failed");
}
#endif

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.shape_str(), "[2, 3, 4]");
  for (float v : t.flat()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, FillConstructor) {
  Tensor t({3}, 2.5F);
  for (float v : t.flat()) EXPECT_EQ(v, 2.5F);
}

TEST(Tensor, ValueConstructorChecksSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, AtIndexing) {
  Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  EXPECT_EQ((t.at({0, 0})), 0.0F);
  EXPECT_EQ((t.at({0, 2})), 2.0F);
  EXPECT_EQ((t.at({1, 1})), 4.0F);
  t.at({1, 2}) = 9.0F;
  EXPECT_EQ(t[5], 9.0F);
}

TEST(Tensor, ReshapeInfersWildcard) {
  Tensor t = Tensor::arange(12);
  const Tensor r = t.reshape({3, -1});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_EQ(r[7], 7.0F);
  EXPECT_THROW(t.reshape({5, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshape({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshape({3, 5}), std::invalid_argument);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  const Tensor sum = a + b;
  const Tensor diff = b - a;
  const Tensor prod = a * b;
  EXPECT_EQ(sum[1], 7.0F);
  EXPECT_EQ(diff[2], 3.0F);
  EXPECT_EQ(prod[0], 4.0F);
  const Tensor scaled = a * 2.0F;
  EXPECT_EQ(scaled[2], 6.0F);
  Tensor c({2}, std::vector<float>{1, 2});
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, std::vector<float>{1, -2, 3, 4});
  EXPECT_FLOAT_EQ(t.sum(), 6.0F);
  EXPECT_FLOAT_EQ(t.mean(), 1.5F);
  EXPECT_FLOAT_EQ(t.min(), -2.0F);
  EXPECT_FLOAT_EQ(t.max(), 4.0F);
  EXPECT_FLOAT_EQ(t.sq_norm(), 1 + 4 + 9 + 16);
  EXPECT_EQ(t.argmax(), 3);
}

TEST(Tensor, KahanSumIsAccurate) {
  // 1 + 1e-8 added many times loses precision with naive float accumulation.
  Tensor t({100001});
  t.fill(1e-4F);
  t[0] = 1.0F;
  EXPECT_NEAR(t.sum(), 1.0F + 1e-4F * 100000, 1e-4);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(7);
  const Tensor t = Tensor::randn({10000}, rng, 2.0F);
  EXPECT_NEAR(t.mean(), 0.0, 0.1);
  const float var = t.sq_norm() / static_cast<float>(t.numel());
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Ops, MatmulMatchesHandComputation) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ((c.at({0, 0})), 58.0F);
  EXPECT_FLOAT_EQ((c.at({0, 1})), 64.0F);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 139.0F);
  EXPECT_FLOAT_EQ((c.at({1, 1})), 154.0F);
}

TEST(Ops, MatmulRejectsBadShapes) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

// Reference GEMM to cross-check the blocked kernel across transposes.
void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

class GemmTransposeTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTransposeTest, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  Rng rng(42);
  const std::int64_t m = 33, n = 47, k = 29;
  const Tensor a = Tensor::randn({ta ? k : m, ta ? m : k}, rng);
  const Tensor b = Tensor::randn({tb ? n : k, tb ? k : n}, rng);
  Tensor c_fast = Tensor::randn({m, n}, rng);
  Tensor c_ref = c_fast;
  gemm(ta, tb, m, n, k, 0.7F, a.data(), b.data(), 0.3F, c_fast.data());
  naive_gemm(ta, tb, m, n, k, 0.7F, a.data(), b.data(), 0.3F, c_ref.data());
  for (std::int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c_fast[i], c_ref[i], 1e-3F) << "mismatch at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTransposeTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(Ops, GemmLargeBlockedPath) {
  // Exercise sizes beyond one cache block in every dimension.
  Rng rng(3);
  const std::int64_t m = 130, n = 260, k = 270;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_fast({m, n});
  Tensor c_ref({m, n});
  gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F, c_fast.data());
  naive_gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F, c_ref.data());
  double max_err = 0.0;
  for (std::int64_t i = 0; i < m * n; ++i) {
    max_err = std::max(max_err, std::abs(static_cast<double>(c_fast[i]) - c_ref[i]));
  }
  EXPECT_LT(max_err, 2e-3);
}

TEST(Ops, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no pad: im2col output is a channel-major
  // transpose of the image.
  Tensor img({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<float> cols(8);
  im2col(img.data(), 2, 2, 2, 1, 1, 1, 0, cols.data());
  // Row p = (pixel p of channel 0, pixel p of channel 1).
  EXPECT_EQ(cols[0], 1.0F);
  EXPECT_EQ(cols[1], 5.0F);
  EXPECT_EQ(cols[6], 4.0F);
  EXPECT_EQ(cols[7], 8.0F);
}

TEST(Ops, Im2ColPaddingProducesZeros) {
  Tensor img({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  const std::int64_t oh = conv_out_size(2, 3, 1, 1);
  ASSERT_EQ(oh, 2);
  std::vector<float> cols(static_cast<std::size_t>(oh * oh * 9));
  im2col(img.data(), 1, 2, 2, 3, 3, 1, 1, cols.data());
  // Top-left output position: the first row of the 3x3 patch is padding.
  EXPECT_EQ(cols[0], 0.0F);
  EXPECT_EQ(cols[4], 1.0F);  // center = pixel (0,0)
}

// Regression: conv_out_size used to divide by a zero/negative stride and
// return a negative size for kernels larger than the padded input — callers
// cast that through size_t into multi-exabyte allocation requests.
TEST(Ops, ConvOutSizeRejectsInvalidGeometry) {
  EXPECT_EQ(conv_out_size(8, 3, 1, 0), 6);
  EXPECT_EQ(conv_out_size(8, 3, 2, 1), 4);
  EXPECT_EQ(conv_out_size(5, 5, 1, 0), 1);  // kernel == padded input is legal
  EXPECT_THROW(conv_out_size(8, 3, 0, 1), std::invalid_argument);   // stride 0
  EXPECT_THROW(conv_out_size(8, 3, -1, 1), std::invalid_argument);  // stride < 0
  EXPECT_THROW(conv_out_size(8, 0, 1, 0), std::invalid_argument);   // kernel 0
  EXPECT_THROW(conv_out_size(8, 3, 1, -1), std::invalid_argument);  // pad < 0
  EXPECT_THROW(conv_out_size(-1, 3, 1, 1), std::invalid_argument);  // in < 0
  EXPECT_THROW(conv_out_size(4, 7, 1, 1), std::invalid_argument);   // 7 > 4+2
  // Enough padding makes the same kernel legal again.
  EXPECT_EQ(conv_out_size(4, 7, 1, 2), 2);
}

TEST(Ops, Im2ColRejectsInvalidGeometry) {
  Tensor img({1, 1, 4, 4});
  std::vector<float> cols(256);
  EXPECT_THROW(im2col(img.data(), 1, 4, 4, 3, 3, 0, 1, cols.data()),
               std::invalid_argument);
  EXPECT_THROW(im2col(img.data(), 1, 4, 4, 7, 7, 1, 0, cols.data()),
               std::invalid_argument);
  std::vector<float> grad(16, 0.0F);
  EXPECT_THROW(col2im(cols.data(), 1, 4, 4, 3, 3, -1, 1, grad.data()),
               std::invalid_argument);
}

TEST(Ops, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property the conv backward pass relies on.
  Rng rng(11);
  const std::int64_t c = 3, h = 6, w = 5, kh = 3, kw = 3, stride = 2, pad = 1;
  const std::int64_t oh = conv_out_size(h, kh, stride, pad);
  const std::int64_t ow = conv_out_size(w, kw, stride, pad);
  const std::int64_t cols_len = oh * ow * c * kh * kw;
  const Tensor x = Tensor::randn({c * h * w}, rng);
  const Tensor y = Tensor::randn({cols_len}, rng);
  std::vector<float> cols(static_cast<std::size_t>(cols_len));
  im2col(x.data(), c, h, w, kh, kw, stride, pad, cols.data());
  std::vector<float> back(static_cast<std::size_t>(c * h * w), 0.0F);
  col2im(y.data(), c, h, w, kh, kw, stride, pad, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cols_len; ++i) lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) * y[i];
  for (std::int64_t i = 0; i < c * h * w; ++i) rhs += static_cast<double>(x[i]) * back[static_cast<std::size_t>(i)];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor x = Tensor::randn({4, 7}, rng, 3.0F);
  softmax_rows(x.data(), 4, 7);
  for (std::int64_t r = 0; r < 4; ++r) {
    double s = 0.0;
    for (std::int64_t j = 0; j < 7; ++j) {
      const float v = x.data()[r * 7 + j];
      EXPECT_GE(v, 0.0F);
      s += v;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, LogSoftmaxMatchesSoftmaxLog) {
  Rng rng(6);
  const Tensor x = Tensor::randn({3, 5}, rng, 2.0F);
  Tensor sm = x;
  softmax_rows(sm.data(), 3, 5);
  Tensor lsm({3, 5});
  log_softmax_rows(x.data(), 3, 5, lsm.data());
  for (std::int64_t i = 0; i < 15; ++i) {
    EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-5);
  }
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  Tensor x({1, 3}, std::vector<float>{1000.0F, 1001.0F, 1002.0F});
  softmax_rows(x.data(), 1, 3);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0, 1e-5);
  EXPECT_GT(x[2], x[1]);
}

TEST(Ops, DotAndAxpy) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  EXPECT_DOUBLE_EQ(dot(a.flat(), b.flat()), 32.0);
  axpy(2.0F, a.flat(), b.flat());
  EXPECT_EQ(b[0], 6.0F);
  EXPECT_EQ(b[2], 12.0F);
}

TEST(Ops, SliceRowExtractsEachRow) {
  Rng rng(77);
  const Tensor batch = Tensor::randn({3, 2, 4, 4}, rng);
  for (std::int64_t n = 0; n < 3; ++n) {
    const Tensor row = slice_row(batch, n);
    ASSERT_EQ(row.shape(), (Shape{2, 4, 4}));
    for (std::int64_t i = 0; i < row.numel(); ++i) {
      EXPECT_EQ(row[i], batch[n * row.numel() + i]);
    }
  }
}

TEST(Ops, SliceRowValidates) {
  Rng rng(79);
  const Tensor batch = Tensor::randn({2, 3}, rng);
  EXPECT_THROW(slice_row(batch, -1), std::invalid_argument);
  EXPECT_THROW(slice_row(batch, 2), std::invalid_argument);
  const Tensor scalar(Shape{});
  EXPECT_THROW(slice_row(scalar, 0), std::invalid_argument);
}

}  // namespace
}  // namespace clado::tensor
