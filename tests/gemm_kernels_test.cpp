// Cross-path consistency suite for the runtime-dispatched kernel layer:
// every level must agree with the scalar reference — bit-exactly for the
// integer conv entry (integer arithmetic, no excuses), within
// accumulation-order tolerance for fp32 — across randomized shapes
// including ragged tails that do not divide any block or tile size.
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

// The naive definition qconv2d_s8 must reproduce at every level: each
// output is rescale * float(sum over taps of (x - za) * w), padding taps
// contributing nothing, then (separately) + bias.
std::vector<float> qconv_reference(const kernels::ConvGeometry& g, std::int64_t batch,
                                   const std::vector<std::int8_t>& input, std::int32_t za,
                                   const std::vector<std::int8_t>& codes, float rescale,
                                   const float* bias) {
  const std::int64_t oh = conv_out_size(g.height, g.kernel, g.stride, g.pad);
  const std::int64_t ow = conv_out_size(g.width, g.kernel, g.stride, g.pad);
  const std::int64_t patch = g.in_channels * g.kernel * g.kernel;
  std::vector<float> out;
  for (std::int64_t s = 0; s < batch; ++s) {
    const std::int8_t* img = input.data() + s * g.in_channels * g.height * g.width;
    for (std::int64_t o = 0; o < g.out_channels; ++o) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          std::int32_t acc = 0;
          for (std::int64_t p = 0; p < patch; ++p) {
            const std::int64_t c = p / (g.kernel * g.kernel);
            const std::int64_t iy = oy * g.stride + p / g.kernel % g.kernel - g.pad;
            const std::int64_t ix = ox * g.stride + p % g.kernel - g.pad;
            if (iy < 0 || iy >= g.height || ix < 0 || ix >= g.width) continue;
            acc += (img[(c * g.height + iy) * g.width + ix] - za) * codes[o * patch + p];
          }
          float v = rescale * static_cast<float>(acc);
          if (bias != nullptr) v += bias[o];
          out.push_back(v);
        }
      }
    }
  }
  return out;
}

// The integer conv entry at every available level against the naive
// definition and against each other, bit for bit, over ragged geometry:
// stride 2 with pad 1, odd k (27, not a multiple of the k-pair or the
// vector width), out_c not a multiple of the 4-channel tile, 7x7 and 5x5
// outputs (positions not a multiple of the 16-lane panel), 8-wide stride-1
// outputs that the AVX2 row route fills (a panel spanning two output rows,
// and a 7x8 output whose last panel has one live half), a linear layer as
// the 1x1 conv of a [k, 1, 1] image, batches 1, 3 and 8, int8 and int4
// weight codes, and input zero points at both int8 extremes.
TEST(GemmKernels, QConvEntryMatchesReferenceAndLevelsAgreeBitExactly) {
  struct QCase {
    kernels::ConvGeometry geom;
    std::int64_t batch;
  };
  const std::vector<QCase> cases = {
      {{3, 13, 13, 5, 3, 2, 1, 1}, 3},   // k 27, s2 p1 -> 7x7, out_c 5
      {{3, 7, 7, 5, 3, 1, 1, 1}, 8},     // 7x7 output at stride 1
      {{3, 9, 10, 6, 3, 2, 1, 1}, 1},    // non-square 5x5 output
      {{8, 16, 16, 8, 3, 1, 1, 1}, 3},   // resnet_a body: 256 positions
      {{4, 7, 8, 5, 3, 1, 1, 1}, 3},     // 7x8 output: 56 positions, half a panel left
      {{16, 8, 8, 6, 3, 1, 1, 1}, 3},    // 8-wide rows: a panel spans two output rows
      {{16, 8, 8, 32, 3, 2, 1, 1}, 1},   // k 144 at stride 2
      {{8, 16, 16, 16, 1, 2, 0, 1}, 8},  // 1x1 downsample, k 8
      {{5, 6, 7, 7, 2, 1, 0, 1}, 3},     // even kernel, k 20
      {{32, 1, 1, 10, 1, 1, 0, 1}, 8},   // linear head as a 1x1 conv
  };
  std::vector<Level> levels = {Level::kScalar};
  if (kernels::cpu_supports_avx2()) levels.push_back(Level::kAvx2);

  Rng rng(2026);
  for (const QCase& qc : cases) {
    const kernels::ConvGeometry& g = qc.geom;
    const std::int64_t n = g.out_channels;
    const std::int64_t k = g.in_channels * g.kernel * g.kernel;
    const std::vector<std::int8_t> input =
        rand_s8_buffer(qc.batch * g.in_channels * g.height * g.width, rng);
    const std::vector<float> bias = randn_buffer(n, rng);
    for (const int code_span : {256, 16}) {  // int8, then int4 codes
      std::vector<std::int8_t> codes(static_cast<std::size_t>(n * k));
      for (auto& c : codes) {
        c = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(code_span)) -
                                     code_span / 2);
      }
      std::vector<std::int16_t> pairs(static_cast<std::size_t>(kernels::qweights_pairs(n, k)));
      std::vector<std::int32_t> sums(static_cast<std::size_t>(n));
      kernels::pack_qweights(n, k, codes.data(), pairs.data(), sums.data());
      const kernels::QWeights w{n, k, pairs.data(), sums.data()};
      for (const std::int32_t za : {-128, 127, 3}) {
        for (const float* bias_ptr : {static_cast<const float*>(nullptr), bias.data()}) {
          const std::vector<float> want =
              qconv_reference(g, qc.batch, input, za, codes, 0.0123F, bias_ptr);
          std::vector<std::vector<float>> got_by_level;
          for (const Level level : levels) {
            const kernels::QConvWorkspace ws = kernels::qconv2d_s8_workspace(level, g);
            std::vector<std::int16_t> scratch(static_cast<std::size_t>(ws.codes));
            std::vector<std::int32_t> table(static_cast<std::size_t>(ws.indices));
            kernels::qconv2d_s8_table(level, g, table.data());
            std::vector<float> got(want.size(), std::numeric_limits<float>::quiet_NaN());
            kernels::qconv2d_s8(level, g, qc.batch, input.data(), za, w, 0.0123F, bias_ptr,
                                table.data(), scratch.data(), got.data());
            ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
                << kernels::level_name(level) << " c=" << g.in_channels << " " << g.height
                << "x" << g.width << " oc=" << g.out_channels << " k=" << g.kernel
                << " s=" << g.stride << " p=" << g.pad << " batch=" << qc.batch
                << " za=" << za << " span=" << code_span << " bias=" << (bias_ptr != nullptr);
            got_by_level.push_back(std::move(got));
          }
          for (const auto& got : got_by_level) {
            ASSERT_EQ(std::memcmp(got.data(), got_by_level.front().data(),
                                  got.size() * sizeof(float)),
                      0);
          }
        }
      }
    }
  }
}

TEST(GemmKernels, QConvEntryRejectsGroupsAndMismatchedWeights) {
  const kernels::ConvGeometry grouped{8, 4, 4, 8, 3, 1, 1, 2};
  EXPECT_THROW(kernels::qconv2d_s8_workspace(Level::kScalar, grouped), std::invalid_argument);
  const kernels::ConvGeometry g{2, 3, 3, 4, 3, 1, 0, 1};
  std::vector<std::int16_t> pairs(static_cast<std::size_t>(kernels::qweights_pairs(4, 17)));
  std::vector<std::int32_t> sums(4);
  const kernels::QWeights wrong_k{4, 17, pairs.data(), sums.data()};
  const std::vector<std::int8_t> input(18);
  std::vector<std::int16_t> scratch(
      static_cast<std::size_t>(kernels::qconv2d_s8_workspace(Level::kScalar, g).codes));
  std::vector<float> out(4);
  EXPECT_THROW(kernels::qconv2d_s8(Level::kScalar, g, 1, input.data(), 0, wrong_k, 1.0F, nullptr,
                                   nullptr, scratch.data(), out.data()),
               std::invalid_argument);
}

}  // namespace
}  // namespace clado::tensor
