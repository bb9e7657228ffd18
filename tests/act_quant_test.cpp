#include "clado/quant/act_quant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "clado/tensor/rng.h"

namespace clado::quant {
namespace {

using clado::tensor::Rng;
using clado::tensor::Tensor;

TEST(ActFakeQuant, BypassIsIdentity) {
  Rng rng(1);
  ActFakeQuant aq(8);
  const Tensor x = Tensor::randn({2, 8}, rng);
  const Tensor y = aq.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(ActFakeQuant, ObserveTracksRunningMinMax) {
  ActFakeQuant aq(8);
  aq.set_mode(ActQuantMode::kObserve);
  aq.forward(Tensor({2}, std::vector<float>{-1.0F, 2.0F}));
  aq.forward(Tensor({2}, std::vector<float>{-3.0F, 1.0F}));
  aq.freeze_from_observed();
  EXPECT_TRUE(aq.calibrated());
  EXPECT_LE(aq.lo(), -2.9F);
  EXPECT_GE(aq.hi(), 1.9F);
}

TEST(ActFakeQuant, QuantizeWithoutCalibrationPassesThrough) {
  Rng rng(2);
  ActFakeQuant aq(8);
  aq.set_mode(ActQuantMode::kQuantize);
  const Tensor x = Tensor::randn({4}, rng);
  const Tensor y = aq.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(ActFakeQuant, QuantizeSnapsToGridAndClips) {
  ActFakeQuant aq(2);  // 4 levels
  aq.set_mode(ActQuantMode::kObserve);
  aq.forward(Tensor({2}, std::vector<float>{0.0F, 3.0F}));
  aq.freeze_from_observed();
  aq.set_mode(ActQuantMode::kQuantize);

  const Tensor y = aq.forward(Tensor({4}, std::vector<float>{-5.0F, 0.4F, 2.1F, 99.0F}));
  std::set<float> levels(y.flat().begin(), y.flat().end());
  EXPECT_LE(levels.size(), 4U);
  EXPECT_GE(y.min(), aq.lo() - 1e-5F);
  EXPECT_LE(y.max(), aq.hi() + 1e-5F);
}

// forward() rounds with std::rint; in the default rounding mode that is
// the value of the std::nearbyint expression it replaced, bit for bit on
// signed zeros, infinities and exact .5 ties (a power-of-two scale makes
// x * (1 / scale) exact), NaN for NaN.
TEST(ActFakeQuant, RintRoundingMatchesNearbyintExpression) {
  ActFakeQuant aq(8);
  aq.set_mode(ActQuantMode::kObserve);
  aq.forward(Tensor({2}, std::vector<float>{-16.0F, 15.875F}));
  aq.freeze_from_observed();
  aq.set_mode(ActQuantMode::kQuantize);
  ASSERT_EQ(aq.scale(), 0.125F);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> xs = {0.0F,     -0.0F,    nan,      -nan,    inf,     -inf,
                                 0.0625F,  -0.0625F, 0.1875F,  -0.1875F, 0.3125F, -0.3125F,
                                 -16.0625F, 15.9375F, 1e30F,   -1e30F,  3.0F,    -7.77F};
  const Tensor y = aq.forward(Tensor({static_cast<std::int64_t>(xs.size())}, xs));
  const float levels = 255.0F;
  const float inv = 1.0F / aq.scale();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    float q = std::nearbyint(xs[i] * inv) + aq.zero_point();
    q = std::clamp(q, 0.0F, levels);
    const float want = (q - aq.zero_point()) * aq.scale();
    const float got = y[static_cast<std::int64_t>(i)];
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "x = " << xs[i];
    } else {
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0) << "x = " << xs[i];
    }
  }
}

TEST(ActFakeQuant, ZeroIsExactlyRepresentable) {
  ActFakeQuant aq(8);
  aq.set_mode(ActQuantMode::kObserve);
  aq.forward(Tensor({2}, std::vector<float>{0.13F, 7.7F}));  // all-positive range
  aq.freeze_from_observed();
  aq.set_mode(ActQuantMode::kQuantize);
  const Tensor y = aq.forward(Tensor({1}, std::vector<float>{0.0F}));
  EXPECT_FLOAT_EQ(y[0], 0.0F);  // ReLU-style sparsity must survive
}

TEST(ActFakeQuant, EightBitErrorIsSmall) {
  Rng rng(3);
  ActFakeQuant aq(8);
  const Tensor x = Tensor::uniform({4096}, rng, -1.0F, 3.0F);
  aq.set_mode(ActQuantMode::kObserve);
  aq.forward(x);
  aq.freeze_from_observed();
  aq.set_mode(ActQuantMode::kQuantize);
  const Tensor y = aq.forward(x);
  double max_err = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    max_err = std::max(max_err, std::abs(static_cast<double>(y[i]) - x[i]));
  }
  // Half a step of (range 4.0 / 255 levels) plus slack.
  EXPECT_LT(max_err, 4.0 / 255.0);
}

TEST(ActFakeQuant, SteMasksClippedPositions) {
  ActFakeQuant aq(4);
  aq.set_mode(ActQuantMode::kObserve);
  aq.forward(Tensor({2}, std::vector<float>{-1.0F, 1.0F}));
  aq.freeze_from_observed();
  aq.set_mode(ActQuantMode::kQuantize);

  const Tensor x({3}, std::vector<float>{-10.0F, 0.0F, 10.0F});
  aq.forward(x);
  const Tensor g = aq.backward(Tensor({3}, 1.0F));
  EXPECT_EQ(g[0], 0.0F);  // below range: clipped, no gradient
  EXPECT_EQ(g[1], 1.0F);  // inside: straight through
  EXPECT_EQ(g[2], 0.0F);  // above range
}

TEST(ActFakeQuant, BackwardInBypassIsIdentity) {
  Rng rng(4);
  ActFakeQuant aq(8);
  const Tensor g = Tensor::randn({5}, rng);
  const Tensor out = aq.backward(g);
  for (std::int64_t i = 0; i < g.numel(); ++i) EXPECT_EQ(out[i], g[i]);
}

class ActBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(ActBitsTest, ErrorShrinksWithBits) {
  const int bits = GetParam();
  Rng rng(5);
  const Tensor x = Tensor::uniform({2048}, rng, -2.0F, 2.0F);
  auto mse_at = [&](int b) {
    ActFakeQuant aq(b);
    aq.set_mode(ActQuantMode::kObserve);
    aq.forward(x);
    aq.freeze_from_observed();
    aq.set_mode(ActQuantMode::kQuantize);
    const Tensor y = aq.forward(x);
    double mse = 0.0;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      mse += std::pow(static_cast<double>(y[i]) - x[i], 2);
    }
    return mse;
  };
  EXPECT_LT(mse_at(bits + 1), mse_at(bits) * 0.6);
}

INSTANTIATE_TEST_SUITE_P(Bits2To6, ActBitsTest, ::testing::Range(2, 7));

// --- recalibration ----------------------------------------------------------

TEST(Observers, ResetObserverClearsCalibration) {
  Rng rng(13);
  ActFakeQuant aq(8);
  aq.set_mode(ActQuantMode::kObserve);
  aq.forward(Tensor::randn({256}, rng));
  aq.freeze_from_observed();
  EXPECT_TRUE(aq.calibrated());
  aq.reset_observer();
  EXPECT_FALSE(aq.calibrated());
  // Quantize mode without calibration is a pass-through again.
  aq.set_mode(ActQuantMode::kQuantize);
  const Tensor x = Tensor::randn({8}, rng);
  const Tensor y = aq.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

}  // namespace
}  // namespace clado::quant
