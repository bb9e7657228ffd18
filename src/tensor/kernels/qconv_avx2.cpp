// AVX2 packed paths of the integer conv entry qconv2d_s8. Per sample, the
// quantized input is widened to int16 once, each 16-position panel is
// packed as int16 k-pairs, and a 4-channel x 16-position tile accumulates
// vpmaddwd outer products in int32 — eight ymm accumulators, two panel
// vectors and one broadcast weight pair live. The epilogue subtracts
// za * sum(w) per channel, converts, multiplies by the rescale and adds the
// bias as two separate instructions, exactly the scalar level's requant,
// and stores straight into the NCHW output.
//
// Two routes fill the panels (see kernels_internal.h): the row route reads
// contiguous runs of a zero-point-padded image (stride 1, output width a
// multiple of 8 — the bulk of a CNN), the gather route reads any geometry
// element by element through the step's index table.
//
// Compiled with -mavx2 -mfma -ffp-contract=off per-file and only entered
// through the dispatch seam after kernels::cpu_supports_avx2(); without
// toolchain support this TU is a throwing stub that dispatch never reaches.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "kernels_internal.h"

#if defined(CLADO_KERNELS_AVX2)

#include <immintrin.h>

namespace clado::tensor {
namespace kernels {
namespace detail {

namespace {

// The k-pair (code 2q, code 2q + 1) of one weight row as the int32 word
// vpmaddwd multiplies lane-wise.
inline std::int32_t pair_word(const std::int16_t* pair) {
  std::int32_t word = 0;
  std::memcpy(&word, pair, sizeof(word));
  return word;
}

// Widens `count` int8 codes to int16.
inline void widen(const std::int8_t* src, std::int64_t count, std::int16_t* dst) {
  std::int64_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_cvtepi8_epi16(bytes));
  }
  for (; i < count; ++i) dst[i] = src[i];
}

// Runs every 4-channel tile over one packed panel (positions j0 .. j0 + 15
// of a sample) and writes the requantized outputs of its `cols` live lanes
// into `out` ([out_c, positions], one sample).
void run_tiles(const std::int16_t* panel, std::int64_t kp, std::int64_t out_c,
               const std::int16_t* pairs, const std::int32_t* sums, std::int32_t za,
               __m256 vscale, const float* bias, std::int64_t positions, std::int64_t j0,
               float* out) {
  const std::int64_t cols = std::min(kQc, positions - j0);
  static_assert(kQr == 4 && kQc == 16, "the tile below is written out for 4 x 16");
  for (std::int64_t c0 = 0; c0 < out_c; c0 += kQr) {
    // Eight named accumulators rather than an array: GCC keeps them in
    // registers without shuffling copies through the loop.
    __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
    __m256i a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    const std::int16_t* wp = pairs + c0 * 2 * kp;
    const std::int16_t* bp = panel;
    for (std::int64_t q = 0; q < kp; ++q, wp += 2 * kQr, bp += 2 * kQc) {
      const __m256i b_lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
      const __m256i b_hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + kQc));
      const __m256i w0 = _mm256_set1_epi32(pair_word(wp));
      a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(b_lo, w0));
      a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(b_hi, w0));
      const __m256i w1 = _mm256_set1_epi32(pair_word(wp + 2));
      a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(b_lo, w1));
      a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(b_hi, w1));
      const __m256i w2 = _mm256_set1_epi32(pair_word(wp + 4));
      a4 = _mm256_add_epi32(a4, _mm256_madd_epi16(b_lo, w2));
      a5 = _mm256_add_epi32(a5, _mm256_madd_epi16(b_hi, w2));
      const __m256i w3 = _mm256_set1_epi32(pair_word(wp + 6));
      a6 = _mm256_add_epi32(a6, _mm256_madd_epi16(b_lo, w3));
      a7 = _mm256_add_epi32(a7, _mm256_madd_epi16(b_hi, w3));
    }
    const __m256i acc[2 * kQr] = {a0, a1, a2, a3, a4, a5, a6, a7};
    for (std::int64_t r = 0; r < kQr; ++r) {
      const std::int64_t c = c0 + r;
      if (c >= out_c) break;
      // Back from panel order (lanes 0-3 | 8-11, then 4-7 | 12-15) to
      // positions 0-7 and 8-15.
      const __m256i first = _mm256_permute2x128_si256(acc[2 * r], acc[2 * r + 1], 0x20);
      const __m256i second = _mm256_permute2x128_si256(acc[2 * r], acc[2 * r + 1], 0x31);
      const __m256i corr = _mm256_set1_epi32(za * sums[c]);
      __m256 lo = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(first, corr)), vscale);
      __m256 hi = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(second, corr)), vscale);
      if (bias != nullptr) {
        const __m256 vb = _mm256_set1_ps(bias[c]);
        lo = _mm256_add_ps(lo, vb);
        hi = _mm256_add_ps(hi, vb);
      }
      float* dst = out + c * positions + j0;
      if (cols == kQc) {
        _mm256_storeu_ps(dst, lo);
        _mm256_storeu_ps(dst + 8, hi);
      } else {
        alignas(32) float tile[kQc];
        _mm256_store_ps(tile, lo);
        _mm256_store_ps(tile + 8, hi);
        std::copy(tile, tile + cols, dst);
      }
    }
  }
}

}  // namespace

void qconv2d_s8_gather_avx2(std::int64_t batch, std::int64_t sample_numel,
                            std::int64_t positions, std::int64_t kp, const std::int8_t* input,
                            std::int32_t za, std::int64_t out_c, const std::int16_t* pairs,
                            const std::int32_t* sums, float rescale, const float* bias,
                            const std::int32_t* table, std::int16_t* codes, float* output) {
  const std::int64_t panel_codes = 2 * kQc * kp;
  std::int16_t* widened = codes;
  std::int16_t* panel = codes + (sample_numel + 1 + kQc - 1) / kQc * kQc;
  const __m256 vscale = _mm256_set1_ps(rescale);
  for (std::int64_t s = 0; s < batch; ++s) {
    widen(input + s * sample_numel, sample_numel, widened);
    widened[sample_numel] = static_cast<std::int16_t>(za);
    float* out = output + s * out_c * positions;
    for (std::int64_t j0 = 0; j0 < positions; j0 += kQc) {
      const std::int32_t* idx = table + j0 / kQc * panel_codes;
      for (std::int64_t e = 0; e < panel_codes; ++e) panel[e] = widened[idx[e]];
      run_tiles(panel, kp, out_c, pairs, sums, za, vscale, bias, positions, j0, out);
    }
  }
}

void qconv2d_s8_rows_avx2(const ConvGeometry& geom, std::int64_t batch,
                          const std::int8_t* input, std::int32_t za, const std::int16_t* pairs,
                          const std::int32_t* sums, float rescale, const float* bias,
                          const std::int32_t* table, std::int16_t* codes, float* output) {
  const std::int64_t ph = geom.height + 2 * geom.pad;
  const std::int64_t pw = geom.width + 2 * geom.pad;
  const std::int64_t out_w = pw - geom.kernel + 1;
  const std::int64_t positions = (ph - geom.kernel + 1) * out_w;
  const std::int64_t k = geom.in_channels * geom.kernel * geom.kernel;
  const std::int64_t kp = (k + 1) / 2;
  const std::int64_t image = geom.in_channels * geom.height * geom.width;
  const std::int64_t padded = geom.in_channels * ph * pw;
  std::int16_t* img = codes;
  std::int16_t* panel = codes + padded;
  const __m256 vscale = _mm256_set1_ps(rescale);
  std::fill(img, img + padded, static_cast<std::int16_t>(za));
  for (std::int64_t s = 0; s < batch; ++s) {
    // The border keeps the zero point from the fill above; only the
    // interior changes from sample to sample.
    const std::int8_t* src = input + s * image;
    for (std::int64_t c = 0; c < geom.in_channels; ++c) {
      for (std::int64_t y = 0; y < geom.height; ++y) {
        widen(src + (c * geom.height + y) * geom.width, geom.width,
              img + (c * ph + y + geom.pad) * pw + geom.pad);
      }
    }
    float* out = output + s * geom.out_channels * positions;
    for (std::int64_t j0 = 0; j0 < positions; j0 += kQc) {
      // Each half of the panel is 8 positions of one output row; a half
      // past the last position repeats the first (its lanes are never
      // stored). Loading code p of both halves into one vector and
      // interleaving it with code p + 1 yields the panel order directly.
      const std::int64_t j1 = j0 + 8 < positions ? j0 + 8 : j0;
      const std::int16_t* row0 = img + j0 / out_w * pw + j0 % out_w;
      const std::int16_t* row1 = img + j1 / out_w * pw + j1 % out_w;
      const auto runs = [&](std::int64_t p) {
        const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row0 + table[p]));
        const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row1 + table[p]));
        return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
      };
      std::int16_t* dst = panel;
      for (std::int64_t q = 0; q < kp; ++q, dst += 2 * kQc) {
        // The odd-k pad pairs code k - 1 with itself; its weight is 0.
        const __m256i a = runs(2 * q);
        const __m256i b = runs(std::min(2 * q + 1, k - 1));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_unpacklo_epi16(a, b));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + kQc), _mm256_unpackhi_epi16(a, b));
      }
      run_tiles(panel, kp, geom.out_channels, pairs, sums, za, vscale, bias, positions, j0, out);
    }
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor

#else  // !CLADO_KERNELS_AVX2: toolchain cannot target AVX2; never dispatched.

namespace clado::tensor {
namespace kernels {
namespace detail {

// qconv2d_s8 routes here only after cpu_supports_avx2(), which is false in
// this build.
void qconv2d_s8_gather_avx2(std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                            const std::int8_t*, std::int32_t, std::int64_t, const std::int16_t*,
                            const std::int32_t*, float, const float*, const std::int32_t*,
                            std::int16_t*, float*) {
  throw std::logic_error("qconv2d_s8_gather_avx2: AVX2 kernels not compiled in");
}

void qconv2d_s8_rows_avx2(const ConvGeometry&, std::int64_t, const std::int8_t*, std::int32_t,
                          const std::int16_t*, const std::int32_t*, float, const float*,
                          const std::int32_t*, std::int16_t*, float*) {
  throw std::logic_error("qconv2d_s8_rows_avx2: AVX2 kernels not compiled in");
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor

#endif
