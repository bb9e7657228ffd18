// AVX2 quantization kernels. Bit-exactness with quantize_scalar.cpp
// is a hard requirement and pins every instruction choice:
//
//   * vroundps with _MM_FROUND_TO_NEAREST_INT is ties-to-even — the same
//     rounding nearbyint performs under the default environment, so the
//     fp32 -> int8 quantization rounds identically lane-for-lane.
//   * the rounded value is clamped to +/-2e9 BEFORE vcvtps2dq (matching
//     the scalar clamp), so the conversion is exact (|v| < 2^31) and the
//     out-of-range lane encoding of vcvtps2dq is never relied on.
//
// The fake quantization (fake_quant_f32_avx2) rounds the same way and
// clamps with std::clamp's operand order. The requant back to fp32 is the
// epilogue of the integer conv entry (qconv_avx2.cpp). Compiled with
// -mavx2 -mfma per-file; scalar forwarders without support.
#include <algorithm>
#include <cmath>

#include "kernels_internal.h"

#if defined(CLADO_KERNELS_AVX2)

#include <immintrin.h>

namespace clado::tensor {
namespace kernels {
namespace detail {

void quantize_f32_s8_avx2(std::int64_t count, const float* x, float inv_scale,
                          std::int32_t zero_point, std::int8_t* out) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vlo = _mm256_set1_ps(-2.0e9f);
  const __m256 vhi = _mm256_set1_ps(2.0e9f);
  const __m256i vzp = _mm256_set1_epi32(zero_point);
  const __m256i vqmin = _mm256_set1_epi32(-128);
  const __m256i vqmax = _mm256_set1_epi32(127);
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    v = _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    v = _mm256_min_ps(_mm256_max_ps(v, vlo), vhi);
    __m256i q = _mm256_add_epi32(_mm256_cvtps_epi32(v), vzp);
    q = _mm256_min_epi32(_mm256_max_epi32(q, vqmin), vqmax);
    // 8 x int32 -> 8 x int8; the packs saturations are no-ops after the
    // [-128, 127] clamp above.
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
    const __m128i bytes = _mm_packs_epi16(w, w);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), bytes);
  }
  for (; i < count; ++i) {
    float r = std::nearbyint(x[i] * inv_scale);
    r = std::min(std::max(r, -2.0e9f), 2.0e9f);
    std::int32_t v = static_cast<std::int32_t>(r) + zero_point;
    v = std::min(std::max(v, -128), 127);
    out[i] = static_cast<std::int8_t>(v);
  }
}

void fake_quant_f32_avx2(std::int64_t count, const float* x, float scale, float zero_point,
                         float levels, float* out) {
  const float inv = 1.0F / scale;
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vzp = _mm256_set1_ps(zero_point);
  const __m256 vlo = _mm256_setzero_ps();
  const __m256 vhi = _mm256_set1_ps(levels);
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256 q = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    q = _mm256_add_ps(_mm256_round_ps(q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC), vzp);
    // std::clamp(q, lo, hi) is q < lo ? lo : (hi < q ? hi : q). vmaxps and
    // vminps return their second operand unless the first compares greater
    // (resp. less), so with q second a NaN q passes through both, and the
    // ties (signed zeros) keep q as std::clamp does.
    q = _mm256_min_ps(vhi, _mm256_max_ps(vlo, q));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_sub_ps(q, vzp), vscale));
  }
  for (; i < count; ++i) {
    float q = std::rint(x[i] * inv) + zero_point;
    q = std::clamp(q, 0.0F, levels);
    out[i] = (q - zero_point) * scale;
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor

#else  // !CLADO_KERNELS_AVX2: toolchain cannot target AVX2; never dispatched.

namespace clado::tensor {
namespace kernels {
namespace detail {

void quantize_f32_s8_avx2(std::int64_t count, const float* x, float inv_scale,
                          std::int32_t zero_point, std::int8_t* out) {
  quantize_f32_s8_scalar(count, x, inv_scale, zero_point, out);
}

void fake_quant_f32_avx2(std::int64_t count, const float* x, float scale, float zero_point,
                         float levels, float* out) {
  fake_quant_f32_scalar(count, x, scale, zero_point, levels, out);
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor

#endif
