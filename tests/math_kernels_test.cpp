// The transcendental kernels (tanh / expm1 / exp / GELU), softmax, the
// fake-quant kernel and the batched attention core: the AVX2 level must
// equal the scalar level bit for bit, on a strided sample of every float
// bit pattern and on every float near each branch threshold of the fdlibm /
// glibc algorithms they port; golden values pin the scalar ports
// themselves; attend_f32 must equal the per-head gather + gemm + softmax
// route it replaced wherever that route's GEMMs take gemm's small path, and
// agree across levels beyond it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"
#include "clado/tensor/rng.h"

namespace clado::tensor {
namespace {

using kernels::Level;
using MathFn = void (*)(Level, std::int64_t, const float*, float*);

struct NamedFn {
  const char* name;
  MathFn fn;
};

const std::vector<NamedFn>& math_fns() {
  static const std::vector<NamedFn> fns = {{"tanh", kernels::tanh_f32},
                                           {"expm1", kernels::expm1_f32},
                                           {"exp", kernels::exp_f32},
                                           {"gelu", kernels::gelu_f32}};
  return fns;
}

float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }
std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// Runs `fn` at both levels over xs and counts results that differ in any
// bit (NaN payloads included: both levels run the same operations on them).
void expect_levels_agree(const NamedFn& f, const std::vector<float>& xs) {
  std::vector<float> scalar(xs.size());
  std::vector<float> avx2(xs.size());
  const auto n = static_cast<std::int64_t>(xs.size());
  f.fn(Level::kScalar, n, xs.data(), scalar.data());
  f.fn(Level::kAvx2, n, xs.data(), avx2.data());
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (bits(scalar[i]) != bits(avx2[i])) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << f.name << "(" << std::hexfloat << xs[i] << "): scalar " << scalar[i]
                      << " avx2 " << avx2[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << f.name << " over " << xs.size() << " inputs";
}

TEST(MathKernels, LevelsAgreeOnStridedSampleOfEveryBitPattern) {
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  // 2^32 / 4093 patterns, offset so the sample is not aligned to powers of
  // two: every exponent of both signs, infinities' neighbours and NaNs.
  std::vector<float> xs;
  for (std::uint64_t b = 1234; b < (std::uint64_t{1} << 32); b += 4093) {
    xs.push_back(from_bits(static_cast<std::uint32_t>(b)));
  }
  for (const NamedFn& f : math_fns()) expect_levels_agree(f, xs);
}

TEST(MathKernels, LevelsAgreeOnEveryFloatNearEachBranchThreshold) {
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  constexpr float kLn2 = 0.693147182F;
  // Magnitudes where a lane changes branch, as bit patterns; each band is
  // tested with both signs through every function.
  const std::vector<std::uint32_t> thresholds = {
      // tanh: 2^-55, 1, 22, infinity (the band above it is NaNs).
      0x24000000U, 0x3f800000U, 0x41b00000U, 0x7f800000U,
      // expm1: 2^-25, ln2 / 2, 3 ln2 / 2, 27 ln2, the first x with k = 23
      // and with k = 57, its overflow threshold and |x| >= 88.72 (k = 128
      // just below).
      0x33000000U, 0x3eb17218U, 0x3f851592U, 0x4195b844U, bits(22.5F * kLn2),
      bits(56.5F * kLn2), 0x42b17180U, 0x42b17218U,
      // tanh's own arguments whose expm1 argument (-+2|x|) is at those.
      bits(0.25F * kLn2), bits(0.75F * kLn2), bits(11.25F * kLn2), bits(13.5F * kLn2),
      bits(28.25F * kLn2),
      // exp: |x| >= 88 (the special branch), overflow, underflow to 0.
      0x42b00000U, bits(0x1.62e42ep6F), bits(0x1.9fe368p6F)};
  constexpr std::uint32_t kBand = 4096;  // floats on each side
  std::vector<float> xs;
  for (const std::uint32_t t : thresholds) {
    for (const std::uint32_t sign : {0U, 0x80000000U}) {
      const std::uint32_t centre = t | sign;
      for (std::uint32_t d = 0; d <= 2 * kBand; ++d) xs.push_back(from_bits(centre - kBand + d));
    }
  }
  for (const NamedFn& f : math_fns()) expect_levels_agree(f, xs);
}

// Golden results of the scalar ports, which glibc 2.36's tanhf / expm1f /
// expf return too (on an FMA host for expf); every level must reproduce
// them on every host.
TEST(MathKernels, GoldenValues) {
  struct Case {
    const char* fn;
    float x;
    std::uint32_t want;
  };
  const std::vector<Case> cases = {
      {"tanh", 0x1p-60F, 0x21800000U},         {"tanh", 0.5F, 0x3eec9a9fU},
      {"tanh", -0.75F, 0xbf22991fU},           {"tanh", 1.0F, 0x3f42f7d6U},
      {"tanh", -3.25F, 0xbf7f3b3dU},           {"tanh", -30.0F, 0xbf800000U},
      {"expm1", 0x1.0624dep-10F, 0x3a832337U}, {"expm1", -0x1.99999ap-2F, 0xbea8cbd0U},
      {"expm1", 17.0F, 0x4bb849a4U},           {"expm1", 0x1.62ccccp+6F, 0x7f7a37fcU},
      {"exp", 1.0F, 0x402df854U},              {"exp", -10.5F, 0x37e6fe13U},
      {"exp", 0x1.5f999ap+6F, 0x7ee0dcaeU},    {"exp", -87.5F, 0x006cb2bcU},
      {"exp", -100.0F, 0x0000001bU},           {"exp", -103.5F, 0x00000001U},
      {"gelu", 1.0F, 0x3f57585cU},             {"gelu", -2.5F, 0xbc772420U},
  };
  for (const Case& c : cases) {
    const auto fn = std::find_if(math_fns().begin(), math_fns().end(),
                                 [&](const NamedFn& f) { return std::string(f.name) == c.fn; });
    ASSERT_NE(fn, math_fns().end());
    for (const Level level : {Level::kScalar, Level::kAvx2}) {
      if (level == Level::kAvx2 && !kernels::cpu_supports_avx2()) continue;
      float y = 0.0F;
      fn->fn(level, 1, &c.x, &y);
      EXPECT_EQ(bits(y), c.want) << c.fn << "(" << std::hexfloat << c.x << ") at "
                                 << kernels::level_name(level) << " = " << y;
    }
  }
  EXPECT_EQ(bits(kernels::tanh_f32(0.5F)), 0x3eec9a9fU);
  EXPECT_EQ(bits(kernels::exp_f32(1.0F)), 0x402df854U);
  EXPECT_EQ(bits(kernels::gelu_f32(1.0F)), 0x3f57585cU);
}

TEST(MathKernels, GeluInPlaceOnARaggedLengthMatchesElementwise) {
  Rng rng(41);
  std::vector<float> xs(8 * 9 + 5);
  for (auto& x : xs) x = static_cast<float>(rng.normal()) * 3.0F;
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (level == Level::kAvx2 && !kernels::cpu_supports_avx2()) continue;
    std::vector<float> in_place = xs;
    kernels::gelu_f32(level, static_cast<std::int64_t>(xs.size()), in_place.data(),
                      in_place.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(bits(in_place[i]), bits(kernels::gelu_f32(xs[i])))
          << kernels::level_name(level) << " element " << i;
    }
  }
}

// ActFakeQuant's per-element expression, as it read before the kernel.
float fake_quant_reference(float x, float scale, float zero_point, float levels) {
  float q = std::rint(x * (1.0F / scale)) + zero_point;
  q = std::clamp(q, 0.0F, levels);
  return (q - zero_point) * scale;
}

TEST(MathKernels, FakeQuantMatchesItsElementwiseDefinitionAtEveryLevel) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0F, -0.0F, nan, -nan, inf, -inf, 0.125F, -0.125F, 0.375F,
                           1e-30F, -1e-30F, 1e30F, -1e30F, 12.7F, 12.8F, -0.8F};
  Rng rng(43);
  for (int i = 0; i < 8 * 12 + 3; ++i) xs.push_back(static_cast<float>(rng.normal()) * 8.0F);
  const auto n = static_cast<std::int64_t>(xs.size());
  struct Grid {
    float scale, zero_point, levels;
  };
  for (const Grid g : {Grid{0.05F, 3.0F, 255.0F}, Grid{0.25F, 0.0F, 15.0F},
                       Grid{0.1F, 128.0F, 255.0F}}) {
    for (const Level level : {Level::kScalar, Level::kAvx2}) {
      if (level == Level::kAvx2 && !kernels::cpu_supports_avx2()) continue;
      std::vector<float> out(xs.size());
      kernels::fake_quant_f32(level, n, xs.data(), g.scale, g.zero_point, g.levels, out.data());
      std::vector<float> in_place = xs;
      kernels::fake_quant_f32(level, n, in_place.data(), g.scale, g.zero_point, g.levels,
                              in_place.data());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const float want = fake_quant_reference(xs[i], g.scale, g.zero_point, g.levels);
        // A NaN input stays NaN (std::clamp passes it through).
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(out[i]) && std::isnan(in_place[i])) << "x=" << xs[i];
          continue;
        }
        EXPECT_EQ(bits(out[i]), bits(want))
            << kernels::level_name(level) << " x=" << std::hexfloat << xs[i];
        EXPECT_EQ(bits(in_place[i]), bits(want)) << kernels::level_name(level);
      }
    }
  }
}

// The route attend_f32 replaced: per sample and head, gather the [t, hd]
// slices, gemm QKᵀ scaled by 1 / sqrt(hd), softmax_rows, gemm P·V, copy
// the head's columns out.
void gather_gemm_softmax_route(Level level, std::int64_t n, std::int64_t t, std::int64_t d,
                               std::int64_t heads, const float* q, const float* k,
                               const float* v, float* probs, float* ctx) {
  const std::int64_t hd = d / heads;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  std::vector<float> qh(t * hd), kh(t * hd), vh(t * hd), ch(t * hd);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t i = 0; i < t; ++i) {
        for (std::int64_t j = 0; j < hd; ++j) {
          const std::int64_t at = (s * t + i) * d + h * hd + j;
          qh[i * hd + j] = q[at];
          kh[i * hd + j] = k[at];
          vh[i * hd + j] = v[at];
        }
      }
      float* scores = probs + (s * heads + h) * t * t;
      gemm(level, false, true, t, t, hd, scale, qh.data(), kh.data(), 0.0F, scores);
      softmax_rows(scores, t, t);
      gemm(level, false, false, t, hd, t, 1.0F, scores, vh.data(), 0.0F, ch.data());
      for (std::int64_t i = 0; i < t; ++i) {
        for (std::int64_t j = 0; j < hd; ++j) ctx[(s * t + i) * d + h * hd + j] = ch[i * hd + j];
      }
    }
  }
}

struct AttendCase {
  std::int64_t n, t, head_dim, heads;
};

// Every 7th query feature is an exact zero (a skipped A element of QKᵀ),
// and every third token's query is scaled up so its scores spread past
// e^-104: those probabilities underflow to exact zeros (skipped P·V terms).
struct AttendInputs {
  std::vector<float> q, k, v;
};

AttendInputs attend_inputs(const AttendCase& c, std::uint64_t seed) {
  const std::int64_t d = c.head_dim * c.heads;
  const std::int64_t numel = c.n * c.t * d;
  Rng rng(seed);
  AttendInputs in{std::vector<float>(numel), std::vector<float>(numel),
                  std::vector<float>(numel)};
  for (auto& x : in.k) x = static_cast<float>(rng.normal());
  for (auto& x : in.v) x = static_cast<float>(rng.normal());
  for (std::int64_t i = 0; i < numel; ++i) {
    const float spread = i / d % 3 == 0 ? 60.0F : 1.0F;
    in.q[i] = i % 7 == 3 ? 0.0F : static_cast<float>(rng.normal()) * spread;
  }
  return in;
}

TEST(MathKernels, AttendMatchesTheGatherGemmSoftmaxRouteAtEveryLevel) {
  std::vector<AttendCase> cases;
  for (const std::int64_t n : {1, 3}) {
    for (const std::int64_t t : {1, 5, 17, 23}) {
      for (const std::int64_t head_dim : {4, 8, 12}) cases.push_back({n, t, head_dim, 2});
    }
  }
  std::int64_t zero_probs = 0;
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (level == Level::kAvx2 && !kernels::cpu_supports_avx2()) continue;
    for (const AttendCase& c : cases) {
      SCOPED_TRACE(std::string(kernels::level_name(level)) + " n=" + std::to_string(c.n) +
                   " t=" + std::to_string(c.t) + " head_dim=" + std::to_string(c.head_dim));
      const std::int64_t d = c.head_dim * c.heads;
      const AttendInputs in = attend_inputs(c, 900 + static_cast<std::uint64_t>(c.t));
      const std::int64_t probs_numel = c.n * c.heads * c.t * c.t;
      std::vector<float> want_probs(probs_numel), want_ctx(in.q.size());
      gather_gemm_softmax_route(level, c.n, c.t, d, c.heads, in.q.data(), in.k.data(),
                                in.v.data(), want_probs.data(), want_ctx.data());
      std::vector<float> probs(probs_numel, -1.0F), ctx(in.q.size(), -1.0F);
      std::vector<float> scratch(kernels::attend_f32_scratch(c.t, c.head_dim));
      kernels::attend_f32(level, c.n, c.t, d, c.heads, in.q.data(), in.k.data(), in.v.data(),
                          scratch.data(), probs.data(), ctx.data());
      for (std::int64_t i = 0; i < probs_numel; ++i) {
        ASSERT_EQ(bits(probs[i]), bits(want_probs[i])) << "probs " << i;
      }
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        ASSERT_EQ(bits(ctx[i]), bits(want_ctx[i])) << "ctx " << i;
      }
      zero_probs += std::count(probs.begin(), probs.end(), 0.0F);
    }
  }
  EXPECT_GT(zero_probs, 0) << "no probability underflowed: the P·V zero-skip went untested";
}

TEST(MathKernels, AttendLevelsAgreeBeyondTheSmallPath) {
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const AttendCase c{2, 40, 12, 2};  // 40 * 40 * 12 MACs per head > kGemmSmallMacs
  ASSERT_GT(c.t * c.t * c.head_dim, kGemmSmallMacs);
  const std::int64_t d = c.head_dim * c.heads;
  const AttendInputs in = attend_inputs(c, 940);
  const std::int64_t probs_numel = c.n * c.heads * c.t * c.t;
  std::vector<float> scratch(kernels::attend_f32_scratch(c.t, c.head_dim));
  std::vector<float> probs[2], ctx[2];
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    const auto l = static_cast<int>(level);
    probs[l].assign(probs_numel, -1.0F);
    ctx[l].assign(in.q.size(), -1.0F);
    kernels::attend_f32(level, c.n, c.t, d, c.heads, in.q.data(), in.k.data(), in.v.data(),
                        scratch.data(), probs[l].data(), ctx[l].data());
  }
  for (std::int64_t i = 0; i < probs_numel; ++i) {
    ASSERT_EQ(bits(probs[0][i]), bits(probs[1][i])) << "probs " << i;
  }
  for (std::size_t i = 0; i < in.q.size(); ++i) {
    ASSERT_EQ(bits(ctx[0][i]), bits(ctx[1][i])) << "ctx " << i;
  }
}

}  // namespace
}  // namespace clado::tensor
