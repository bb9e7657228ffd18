// Cross-path consistency suite for the runtime-dispatched GEMM kernel
// layer: every level must agree with the scalar reference — bit-exactly
// for int8 (integer arithmetic, no excuses), within accumulation-order
// tolerance for fp32 — across randomized shapes including ragged tails
// that do not divide any block or tile size.
#include "clado/tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "clado/tensor/ops.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"

namespace clado::tensor {
namespace {

using kernels::Level;

// Force a multi-threaded pool (the parallel-agreement test needs one) and a
// clean CLADO_KERNEL before the first ThreadPool/active_level touch.
const bool kEnvReady = [] {
  ::setenv("CLADO_NUM_THREADS", "4", 1);
  return true;
}();

std::vector<float> randn_buffer(std::int64_t count, Rng& rng) {
  std::vector<float> out(static_cast<std::size_t>(count));
  for (auto& v : out) v = static_cast<float>(rng.normal());
  return out;
}

std::vector<std::int8_t> rand_s8_buffer(std::int64_t count, Rng& rng) {
  std::vector<std::int8_t> out(static_cast<std::size_t>(count));
  for (auto& v : out) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) - 128);
  return out;
}

TEST(GemmKernels, LevelNamesAreStable) {
  EXPECT_STREQ(kernels::level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(kernels::level_name(Level::kAvx2), "avx2");
}

TEST(GemmKernels, ResolveLevelParsesCladoKernelStrictly) {
  ASSERT_TRUE(kEnvReady);
  const char* saved = std::getenv("CLADO_KERNEL");
  const std::string saved_value = saved == nullptr ? "" : saved;

  ::unsetenv("CLADO_KERNEL");
  const Level auto_level = kernels::resolve_level();
  EXPECT_EQ(auto_level, kernels::cpu_supports_avx2() ? Level::kAvx2 : Level::kScalar);

  ::setenv("CLADO_KERNEL", "auto", 1);
  EXPECT_EQ(kernels::resolve_level(), auto_level);

  ::setenv("CLADO_KERNEL", "scalar", 1);
  EXPECT_EQ(kernels::resolve_level(), Level::kScalar);

  if (kernels::cpu_supports_avx2()) {
    ::setenv("CLADO_KERNEL", "avx2", 1);
    EXPECT_EQ(kernels::resolve_level(), Level::kAvx2);
  } else {
    // Requesting unavailable hardware is a hard error, not a downgrade.
    ::setenv("CLADO_KERNEL", "avx2", 1);
    EXPECT_THROW(kernels::resolve_level(), std::invalid_argument);
  }

  // Garbage must not silently run a different kernel than asked for.
  ::setenv("CLADO_KERNEL", "sse9", 1);
  EXPECT_THROW(kernels::resolve_level(), std::invalid_argument);
  ::setenv("CLADO_KERNEL", "SCALAR", 1);
  EXPECT_THROW(kernels::resolve_level(), std::invalid_argument);

  if (saved_value.empty()) {
    ::unsetenv("CLADO_KERNEL");
  } else {
    ::setenv("CLADO_KERNEL", saved_value.c_str(), 1);
  }
}

TEST(GemmKernels, ActiveLevelIsSupported) {
  const Level level = kernels::active_level();
  if (level == Level::kAvx2) {
    EXPECT_TRUE(kernels::cpu_supports_avx2());
  }
  // Cached: repeated calls agree.
  EXPECT_EQ(kernels::active_level(), level);
}

// Randomized fp32 shapes, including ragged tails with m % 64, m % 6,
// n % 16, k % 128 all nonzero, plus the k=1 / n=1 / m=1 degenerates.
TEST(GemmKernels, F32ScalarVsAvx2AcrossRandomShapes) {
  if (!kernels::cpu_supports_avx2()) {
    GTEST_SKIP() << "no AVX2 on this host; scalar is the only level";
  }
  struct Case {
    std::int64_t m, n, k;
  };
  const std::vector<Case> cases = {
      {1, 1, 1},    {1, 5, 3},     {5, 1, 7},      {2, 3, 1},     {6, 16, 32},
      {7, 17, 33},  {13, 29, 41},  {64, 128, 128}, {65, 129, 127}, {64, 16, 200},
      {100, 20, 1}, {3, 100, 5},   {130, 40, 96},  {67, 31, 130},
  };
  Rng rng(2024);
  int combo = 0;
  for (const Case& cs : cases) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        SCOPED_TRACE("m=" + std::to_string(cs.m) + " n=" + std::to_string(cs.n) +
                     " k=" + std::to_string(cs.k) + " ta=" + std::to_string(trans_a) +
                     " tb=" + std::to_string(trans_b));
        const float alpha = (combo++ % 3 == 0) ? 1.0F : 0.75F;
        const auto a = randn_buffer(cs.m * cs.k, rng);
        const auto b = randn_buffer(cs.k * cs.n, rng);
        const std::int64_t lda = trans_a ? cs.m : cs.k;
        const std::int64_t ldb = trans_b ? cs.k : cs.n;
        // Nonzero C start: accumulation into existing values must agree too.
        auto c_scalar = randn_buffer(cs.m * cs.n, rng);
        auto c_avx2 = c_scalar;
        kernels::gemm_f32_row_range(Level::kScalar, trans_a, trans_b, 0, cs.m, cs.n, cs.k,
                                    alpha, a.data(), b.data(), c_scalar.data(), lda, ldb);
        kernels::gemm_f32_row_range(Level::kAvx2, trans_a, trans_b, 0, cs.m, cs.n, cs.k, alpha,
                                    a.data(), b.data(), c_avx2.data(), lda, ldb);
        for (std::size_t i = 0; i < c_scalar.size(); ++i) {
          const float x = c_scalar[i];
          const float y = c_avx2[i];
          // Accumulation-order tolerance: relative in the magnitude of the
          // result plus an absolute floor that grows with k (cancellation
          // can leave a tiny result assembled from O(k) unit-size terms).
          const float tol =
              1e-5F * (1.0F + std::abs(x) + 0.02F * static_cast<float>(cs.k));
          ASSERT_NEAR(x, y, tol) << "element " << i;
        }
      }
    }
  }
}

// int8 must be BIT-EXACT across levels for any shape, including k tails
// shorter than one 16-lane vector and zero points at the int8 extremes.
TEST(GemmKernels, S8ScalarVsAvx2BitExactAcrossRandomShapes) {
  if (!kernels::cpu_supports_avx2()) {
    GTEST_SKIP() << "no AVX2 on this host; scalar is the only level";
  }
  struct Case {
    std::int64_t m, n, k;
    std::int32_t za, zb;
  };
  const std::vector<Case> cases = {
      {1, 1, 1, 0, 0},       {1, 4, 7, -3, 5},     {2, 5, 15, 10, -7},
      {3, 3, 16, -128, 127}, {5, 9, 17, 127, -128}, {4, 4, 31, 1, 1},
      {7, 13, 33, -5, 9},    {8, 8, 64, 0, -128},  {17, 5, 100, -64, 64},
      {33, 9, 129, 7, -3},   {2, 1, 257, -1, 2},
  };
  Rng rng(4096);
  for (const Case& cs : cases) {
    SCOPED_TRACE("m=" + std::to_string(cs.m) + " n=" + std::to_string(cs.n) +
                 " k=" + std::to_string(cs.k) + " za=" + std::to_string(cs.za) +
                 " zb=" + std::to_string(cs.zb));
    const auto a = rand_s8_buffer(cs.m * cs.k, rng);
    const auto b = rand_s8_buffer(cs.n * cs.k, rng);
    std::vector<std::int32_t> c_scalar(static_cast<std::size_t>(cs.m * cs.n), 7);
    std::vector<std::int32_t> c_avx2(static_cast<std::size_t>(cs.m * cs.n), -7);
    kernels::gemm_s8s8_s32(Level::kScalar, cs.m, cs.n, cs.k, a.data(), cs.za, b.data(), cs.zb,
                           c_scalar.data());
    kernels::gemm_s8s8_s32(Level::kAvx2, cs.m, cs.n, cs.k, a.data(), cs.za, b.data(), cs.zb,
                           c_avx2.data());
    for (std::size_t i = 0; i < c_scalar.size(); ++i) {
      ASSERT_EQ(c_scalar[i], c_avx2[i]) << "element " << i;
    }
  }
}

// The pool-parallel public gemm() must agree with a direct single-range
// kernel call at the active level — bit-exactly, because chunks start on
// kGemmBlockM boundaries and rows never interact.
TEST(GemmKernels, ParallelGemmMatchesSingleRangeKernelBitExactly) {
  Rng rng(77);
  const std::int64_t m = 256, n = 96, k = 200;  // above the parallel threshold
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_pool({m, n});
  gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F, c_pool.data());

  std::vector<float> c_direct(static_cast<std::size_t>(m * n), 0.0F);
  kernels::gemm_f32_row_range(kernels::active_level(), false, false, 0, m, n, k, 1.0F, a.data(),
                              b.data(), c_direct.data(), k, n);
  for (std::int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_pool[i], c_direct[static_cast<std::size_t>(i)]) << "element " << i;
  }
}

// Pins the DOCUMENTED divergence of gemm()'s tiny-problem fast path: a zero
// A element skips its whole B row, so a non-finite B value it would have
// multiplied never reaches C, while the blocked path computes 0 * inf = NaN.
// Non-finite inputs are rejected upstream of gemm in this repo; if that
// contract ever changes, this test is the tripwire forcing a decision.
TEST(GemmKernels, SmallPathZeroSkipDivergesOnNonFiniteInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> a = {0.0F, 1.0F};        // [1, 2]
  const std::vector<float> b = {inf, 2.0F};         // [2, 1]
  std::vector<float> c_small = {0.0F};              // 1*2*1 = tiny => fast path
  gemm(false, false, 1, 1, 2, 1.0F, a.data(), b.data(), 0.0F, c_small.data());
  EXPECT_FLOAT_EQ(c_small[0], 2.0F);  // 0*inf skipped, 1*2 kept

  std::vector<float> c_blocked = {0.0F};
  kernels::gemm_f32_row_range(kernels::active_level(), false, false, 0, 1, 1, 2, 1.0F, a.data(),
                              b.data(), c_blocked.data(), 2, 1);
  EXPECT_TRUE(std::isnan(c_blocked[0]));  // 0*inf propagates as NaN
}

// The per-sample route conv2d_f32 must reproduce: im2col of each sample
// and group, gemm(level, false, true, ...) of the group's weights against
// it, then the bias row-add.
std::vector<float> conv_reference(Level level, const kernels::ConvGeometry& g,
                                  std::int64_t batch, const std::vector<float>& input,
                                  const std::vector<float>& weight, const float* bias) {
  const std::int64_t oh = conv_out_size(g.height, g.kernel, g.stride, g.pad);
  const std::int64_t ow = conv_out_size(g.width, g.kernel, g.stride, g.pad);
  const std::int64_t cg = g.in_channels / g.groups;
  const std::int64_t og = g.out_channels / g.groups;
  const std::int64_t patch = cg * g.kernel * g.kernel;
  const std::int64_t positions = oh * ow;
  std::vector<float> out(static_cast<std::size_t>(batch * g.out_channels * positions));
  std::vector<float> cols(static_cast<std::size_t>(positions * patch));
  for (std::int64_t s = 0; s < batch; ++s) {
    const float* img = input.data() + s * g.in_channels * g.height * g.width;
    float* o = out.data() + s * g.out_channels * positions;
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      im2col(img + grp * cg * g.height * g.width, cg, g.height, g.width, g.kernel, g.kernel,
             g.stride, g.pad, cols.data());
      gemm(level, false, true, og, positions, patch, 1.0F, weight.data() + grp * og * patch,
           cols.data(), 0.0F, o + grp * og * positions);
    }
    if (bias != nullptr) {
      for (std::int64_t c = 0; c < g.out_channels; ++c) {
        for (std::int64_t p = 0; p < positions; ++p) o[c * positions + p] += bias[c];
      }
    }
  }
  return out;
}

struct ConvCase {
  kernels::ConvGeometry geom;
  std::int64_t batch;
  bool bias;
  bool packed;  // takes the packed route at Level::kAvx2
};

// Every case of conv2d_f32 at every available level against the per-sample
// reference, bit for bit. The packed AVX2 route covers kernels 1/3/4,
// strides 1/2/4, pads 0/1 on a non-square image, patches across kBlockK
// boundaries (144, 288, 640), out-channel counts that are not multiples of
// the 6-row tile and position counts that are not multiples of the 16-lane
// panel, at batch 1 and 64; small-path and grouped shapes keep the
// reference route, so they match it too.
TEST(GemmKernels, ConvEntryMatchesPerSampleReferenceBitExactly) {
  std::vector<ConvCase> cases;
  for (const std::int64_t k : {1, 3, 4}) {
    for (const std::int64_t stride : {1, 2, 4}) {
      for (const std::int64_t pad : {0, 1}) {
        cases.push_back({{40, 29, 27, 13, k, stride, pad, 1}, 2, pad == 1, true});
      }
    }
  }
  cases.push_back({{16, 8, 8, 16, 3, 1, 1, 1}, 64, true, true});    // patch 144
  cases.push_back({{32, 4, 4, 32, 3, 1, 1, 1}, 64, false, true});   // patch 288, 16 positions
  cases.push_back({{8, 16, 16, 8, 3, 1, 1, 1}, 1, true, true});     // 256 positions
  cases.push_back({{3, 15, 17, 9, 3, 2, 1, 1}, 64, true, true});    // 72 positions
  cases.push_back({{16, 7, 7, 20, 3, 1, 1, 1}, 1, false, true});    // 49 positions
  cases.push_back({{4, 16, 16, 4, 2, 1, 0, 1}, 3, true, false});    // 14400 MACs: small
  cases.push_back({{4, 16, 16, 5, 2, 1, 0, 1}, 3, true, true});     // 18000 MACs
  cases.push_back({{8, 10, 10, 12, 3, 1, 1, 2}, 4, true, false});   // groups 2
  cases.push_back({{8, 10, 10, 8, 3, 2, 1, 8}, 64, false, false});  // depthwise
  std::vector<Level> levels = {Level::kScalar};
  if (kernels::cpu_supports_avx2()) levels.push_back(Level::kAvx2);

  Rng rng(2024);
  for (const ConvCase& cc : cases) {
    const kernels::ConvGeometry& g = cc.geom;
    std::vector<float> input =
        randn_buffer(cc.batch * g.in_channels * g.height * g.width, rng);
    for (std::size_t i = 0; i < input.size(); i += 7) input[i] = i % 2 == 0 ? 0.0F : -0.0F;
    const std::vector<float> weight =
        randn_buffer(g.out_channels * g.in_channels / g.groups * g.kernel * g.kernel, rng);
    const std::vector<float> bias = randn_buffer(g.out_channels, rng);
    const float* bias_ptr = cc.bias ? bias.data() : nullptr;
    for (const Level level : levels) {
      const kernels::ConvWorkspace ws = kernels::conv2d_f32_workspace(level, g);
      EXPECT_EQ(ws.indices > 0, level == Level::kAvx2 && cc.packed);  // the route taken
      std::vector<float> floats(static_cast<std::size_t>(ws.floats));
      std::vector<std::int32_t> indices(static_cast<std::size_t>(ws.indices));
      const std::vector<float> want = conv_reference(level, g, cc.batch, input, weight, bias_ptr);
      std::vector<float> got(want.size(), std::numeric_limits<float>::quiet_NaN());
      kernels::conv2d_f32(level, g, cc.batch, input.data(), weight.data(), bias_ptr,
                          floats.data(), indices.data(), got.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
          << kernels::level_name(level) << " c=" << g.in_channels << " " << g.height << "x"
          << g.width << " oc=" << g.out_channels << " k=" << g.kernel << " s=" << g.stride
          << " p=" << g.pad << " groups=" << g.groups << " batch=" << cc.batch;
    }
  }
}

}  // namespace
}  // namespace clado::tensor
