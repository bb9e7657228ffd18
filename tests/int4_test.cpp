// Packed s4 storage and the sub-byte kernel seam.
//
// Satellite coverage for the int4 execution path: exhaustive pack/unpack
// round-trips (all 256 byte patterns, both nibble parities, seeded random
// tensors — under ASan this also proves no over-read), the all-negative
// zero-point grid invariants shared by the s8 and s4 ranges, the reference
// gemm_s8s4_s32 against a naive loop, quantize_f32_s8 across kernel
// levels, and requant_s32_f32's multiply-then-add. The
// serving path's int4 layers run qconv2d_s8 on widened codes; its
// cross-level sweep lives in gemm_kernels_test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "clado/quant/int4.h"
#include "clado/quant/int8.h"
#include "clado/quant/quantizer.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"

namespace {

using clado::quant::pack_s4;
using clado::quant::pack_s4_rows;
using clado::quant::packed_s4_stride;
using clado::quant::unpack_s4;
using clado::tensor::Rng;
using clado::tensor::Tensor;
namespace kernels = clado::tensor::kernels;

// ---- pack/unpack round trips -----------------------------------------------

TEST(Int4Pack, AllByteValuesRoundTripThroughUnpackPack) {
  // Even count: both nibbles carry codes, so pack(unpack(byte)) must
  // reproduce every one of the 256 possible bytes exactly.
  for (int b = 0; b < 256; ++b) {
    const std::uint8_t packed = static_cast<std::uint8_t>(b);
    std::int8_t codes[2];
    unpack_s4(&packed, 2, codes);
    EXPECT_GE(codes[0], -8);
    EXPECT_LE(codes[0], 7);
    EXPECT_GE(codes[1], -8);
    EXPECT_LE(codes[1], 7);
    std::uint8_t repacked = 0xAA;
    pack_s4(codes, 2, &repacked);
    EXPECT_EQ(repacked, packed) << "byte " << b;
  }
}

TEST(Int4Pack, OddCountKeepsLowNibbleAndZeroPads) {
  // Odd count: only the low nibble is a code; the pad high nibble must be
  // written as zero regardless of what unpack saw.
  for (int b = 0; b < 256; ++b) {
    const std::uint8_t packed = static_cast<std::uint8_t>(b);
    std::int8_t code = 0;
    unpack_s4(&packed, 1, &code);
    std::uint8_t repacked = 0xFF;
    pack_s4(&code, 1, &repacked);
    EXPECT_EQ(repacked, static_cast<std::uint8_t>(b & 0x0F)) << "byte " << b;
  }
}

TEST(Int4Pack, AllCodePairsRoundTripThroughPackUnpack) {
  for (int lo = -8; lo <= 7; ++lo) {
    for (int hi = -8; hi <= 7; ++hi) {
      const std::int8_t codes[2] = {static_cast<std::int8_t>(lo), static_cast<std::int8_t>(hi)};
      std::uint8_t packed = 0;
      pack_s4(codes, 2, &packed);
      std::int8_t back[2] = {99, 99};
      unpack_s4(&packed, 2, back);
      EXPECT_EQ(back[0], codes[0]);
      EXPECT_EQ(back[1], codes[1]);
    }
  }
}

TEST(Int4Pack, SeededRandomTensorsRoundTripAtEveryParity) {
  Rng rng(41);
  for (const std::int64_t count : {1, 2, 3, 7, 8, 31, 32, 33, 255, 256, 1023}) {
    std::vector<std::int8_t> codes(static_cast<std::size_t>(count));
    for (auto& c : codes) {
      c = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.uniform_int(16)) - 8);
    }
    const std::vector<std::uint8_t> packed = pack_s4(codes);
    ASSERT_EQ(static_cast<std::int64_t>(packed.size()), packed_s4_stride(count));
    const std::vector<std::int8_t> back = unpack_s4(packed, count);
    ASSERT_EQ(back.size(), codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ASSERT_EQ(back[i], codes[i]) << "count " << count << " index " << i;
    }
  }
}

TEST(Int4Pack, RejectsOutOfRangeCodes) {
  for (const int bad : {-9, 8, 127, -128}) {
    const std::int8_t codes[2] = {0, static_cast<std::int8_t>(bad)};
    std::uint8_t packed = 0;
    EXPECT_THROW(pack_s4(codes, 2, &packed), std::invalid_argument) << bad;
  }
}

TEST(Int4Pack, VectorUnpackRejectsShortBuffer) {
  const std::vector<std::uint8_t> packed(2);  // room for 4 codes
  EXPECT_THROW(unpack_s4(packed, 5), std::invalid_argument);
  EXPECT_NO_THROW(unpack_s4(packed, 4));
  EXPECT_NO_THROW(unpack_s4(packed, 3));
}

TEST(Int4Pack, RowPackUsesPerRowStride) {
  // k odd: each row pads independently, so row r starts at r * (k+1)/2.
  const std::int64_t n = 3, k = 5;
  std::vector<std::int8_t> codes(static_cast<std::size_t>(n * k));
  for (std::int64_t i = 0; i < n * k; ++i) {
    codes[static_cast<std::size_t>(i)] = static_cast<std::int8_t>((i % 16) - 8);
  }
  const std::vector<std::uint8_t> packed = pack_s4_rows(codes.data(), n, k);
  ASSERT_EQ(static_cast<std::int64_t>(packed.size()), n * packed_s4_stride(k));
  for (std::int64_t r = 0; r < n; ++r) {
    const std::vector<std::int8_t> row =
        unpack_s4(std::vector<std::uint8_t>(
                      packed.begin() + r * packed_s4_stride(k),
                      packed.begin() + (r + 1) * packed_s4_stride(k)),
                  k);
    for (std::int64_t j = 0; j < k; ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)], codes[static_cast<std::size_t>(r * k + j)]);
    }
  }
}

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

// ---- gemm_s8s4_s32 ----------------------------------------------------------

void fill_random_s8(Rng& rng, std::vector<std::int8_t>& v, int span, int offset) {
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(span))) +
                                 offset);
  }
}

/// Naive four-loop reference: c[i,j] = sum_p (a[i,p]-za)(b[j,p]-zb) with b
/// stored as unpacked s4 codes.
std::vector<std::int32_t> naive_s8s4(std::int64_t m, std::int64_t n, std::int64_t k,
                                     const std::vector<std::int8_t>& a, std::int32_t za,
                                     const std::vector<std::int8_t>& codes, std::int32_t zb) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += (static_cast<std::int32_t>(a[static_cast<std::size_t>(i * k + p)]) - za) *
               (static_cast<std::int32_t>(codes[static_cast<std::size_t>(j * k + p)]) - zb);
      }
      c[static_cast<std::size_t>(i * n + j)] = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

TEST(GemmS8S4, ScalarMatchesNaiveReference) {
  Rng rng(11);
  for (const auto& [m, n, k] : {std::tuple<int, int, int>{1, 1, 1},
                               {2, 3, 5},
                               {4, 4, 32},
                               {3, 7, 33},
                               {5, 6, 64},
                               {2, 9, 95}}) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> codes(static_cast<std::size_t>(n * k));
    fill_random_s8(rng, a, 256, -128);
    fill_random_s8(rng, codes, 16, -8);
    const std::int32_t za = static_cast<std::int32_t>(rng.uniform_int(256)) - 128;
    const std::int32_t zb = 0;  // weights are symmetric in the backend
    const std::vector<std::uint8_t> packed = pack_s4_rows(codes.data(), n, k);

    std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
    kernels::gemm_s8s4_s32(m, n, k, a.data(), za, packed.data(), zb, got.data());
    const auto want = naive_s8s4(m, n, k, a, za, codes, zb);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "m=" << m << " n=" << n << " k=" << k << " idx " << i;
    }
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
