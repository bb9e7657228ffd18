// AVX2 transcendental kernels and the attention core. Every lane computes
// exactly what math_scalar.cpp (and attend_f32.cpp) computes for its
// element, so both levels agree bit for bit; that pins every instruction
// choice:
//
//   * tanh / expm1 evaluate every fdlibm branch lane-wise, one rounding per
//     operation in fdlibm's order, and blend the results by the branch each
//     lane takes (the bit-pattern thresholds and k's value). The exponent
//     arithmetic is vpsrlvd / vpslld / vpaddd on the same integers.
//   * exp runs exp_scalar's operations in two 4-lane double halves (no
//     FMA: r from the split constant, the polynomial one rounding per
//     operation); lanes with |x| >= 88 or NaN are recomputed by the scalar
//     port.
//   * the attention core and its softmax keep the scalar order of every
//     sum (see attend_f32_avx2 below).
//
// The TU is compiled with -mavx2 -mfma -ffp-contract=off: without the last
// flag GCC fuses _mm256_mul_ps + _mm256_add_ps into FMAs, and every such
// fusion would change a result. Scalar forwarders without AVX2 support.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "kernels_internal.h"

#if defined(CLADO_KERNELS_AVX2)

#include <immintrin.h>

namespace clado::tensor {
namespace kernels {
namespace detail {

namespace {

constexpr std::int64_t kLanes = 8;
constexpr float kInf = std::numeric_limits<float>::infinity();

__m256 as_ps(__m256i v) { return _mm256_castsi256_ps(v); }
__m256i as_si(__m256 v) { return _mm256_castps_si256(v); }
__m256i splat(std::uint32_t v) { return _mm256_set1_epi32(static_cast<std::int32_t>(v)); }
__m256 select(__m256 mask, __m256 if_true, __m256 if_false) {
  return _mm256_blendv_ps(if_false, if_true, mask);
}
// Lane masks of signed 32-bit comparisons against a constant (the
// bit-pattern thresholds are all below 2^31).
__m256 greater(__m256i v, std::int32_t bound) {
  return as_ps(_mm256_cmpgt_epi32(v, _mm256_set1_epi32(bound)));
}
__m256 less(__m256i v, std::int32_t bound) {
  return as_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(bound), v));
}
__m256 equal(__m256i v, std::int32_t value) {
  return as_ps(_mm256_cmpeq_epi32(v, _mm256_set1_epi32(value)));
}
__m256 mul(__m256 a, __m256 b) { return _mm256_mul_ps(a, b); }
__m256 add(__m256 a, __m256 b) { return _mm256_add_ps(a, b); }
__m256 sub(__m256 a, __m256 b) { return _mm256_sub_ps(a, b); }
__m256 set(float v) { return _mm256_set1_ps(v); }

// fdlibm expm1f on 8 lanes: expm1_scalar, branch by branch.
__m256 expm1_8(__m256 x) {
  const __m256 one = set(1.0F);
  const __m256 half = set(0.5F);
  const __m256i xi = as_si(x);
  const __m256i hx = _mm256_and_si256(xi, splat(0x7fffffffU));
  const __m256 sign = as_ps(_mm256_and_si256(xi, splat(0x80000000U)));
  const __m256 negative = as_ps(_mm256_cmpgt_epi32(_mm256_setzero_si256(), xi));

  // Argument reduction. Below 3/2 ln2, k = +-1 and hi = x -+ ln2_hi
  // (x - (-ln2_hi) is exactly x + ln2_hi); above, k = (int)(x / ln2 +- 1/2).
  const __m256 near = less(hx, kExpm1ThreeHalvesLn2);
  const __m256 reduced = greater(hx, kExpm1HalfLn2);
  const __m256i k_far = _mm256_cvttps_epi32(add(mul(set(kInvLn2), x), _mm256_xor_ps(half, sign)));
  const __m256 t_far = _mm256_cvtepi32_ps(k_far);
  const __m256 hi = select(near, sub(x, _mm256_xor_ps(set(kLn2Hi), sign)),
                           sub(x, mul(t_far, set(kLn2Hi))));
  const __m256 lo = select(near, _mm256_xor_ps(set(kLn2Lo), sign), mul(t_far, set(kLn2Lo)));
  const __m256 x_reduced = sub(hi, lo);
  const __m256 xr = select(reduced, x_reduced, x);
  const __m256 c = _mm256_and_ps(reduced, sub(sub(hi, x_reduced), lo));
  const __m256i k_near = _mm256_or_si256(as_si(negative), _mm256_set1_epi32(1));  // -1 or 1
  const __m256i k = _mm256_and_si256(as_si(reduced), as_si(select(near, as_ps(k_near),
                                                                  as_ps(k_far))));

  // The primary-range polynomial.
  const __m256 hfx = mul(half, xr);
  const __m256 hxs = mul(xr, hfx);
  __m256 poly = add(set(kExpm1Q4), mul(hxs, set(kExpm1Q5)));
  poly = add(set(kExpm1Q3), mul(hxs, poly));
  poly = add(set(kExpm1Q2), mul(hxs, poly));
  poly = add(set(kExpm1Q1), mul(hxs, poly));
  const __m256 r1 = add(one, mul(hxs, poly));
  const __m256 t = sub(set(3.0F), mul(r1, hfx));
  const __m256 e = mul(hxs, _mm256_div_ps(sub(r1, t), sub(set(6.0F), mul(xr, t))));

  // One result per class of k.
  const __m256 r_k0 = sub(xr, sub(mul(xr, e), hxs));
  const __m256 e2 = sub(sub(mul(xr, sub(e, c)), c), hxs);
  const __m256 r_km1 = sub(mul(half, sub(xr, e2)), half);
  const __m256 r_k1 = select(_mm256_cmp_ps(xr, set(-0.25F), _CMP_LT_OQ),
                             mul(set(-2.0F), sub(e2, add(xr, half))),
                             add(one, mul(set(2.0F), sub(xr, e2))));
  const __m256i k_exp = _mm256_slli_epi32(k, 23);  // adds k to an exponent
  const __m256 y_wide = sub(one, sub(e2, xr));
  const __m256 r_wide =
      sub(select(equal(k, 128), mul(mul(y_wide, set(2.0F)), set(0x1p127F)),
                 as_ps(_mm256_add_epi32(as_si(y_wide), k_exp))),
          one);
  const __m256 t_low =  // 1 - 2^-k
      as_ps(_mm256_sub_epi32(splat(0x3f800000U), _mm256_srlv_epi32(splat(0x1000000U), k)));
  const __m256 r_low = as_ps(_mm256_add_epi32(as_si(sub(t_low, sub(e2, xr))), k_exp));
  const __m256 t_high =  // 2^-k
      as_ps(_mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 r_high = as_ps(_mm256_add_epi32(as_si(add(sub(xr, add(e2, t_high)), one)), k_exp));

  __m256 r = r_high;                                                        // 23 <= k <= 56
  r = select(_mm256_and_ps(greater(k, 1), less(k, 23)), r_low, r);          // 2 <= k < 23
  r = select(_mm256_or_ps(less(k, -1), greater(k, 56)), r_wide, r);        // k < -1, k > 56
  r = select(equal(k, 1), r_k1, r);
  r = select(equal(k, -1), r_km1, r);
  r = select(equal(k, 0), r_k0, r);

  // The early returns, lowest precedence first (the last blend wins).
  r = select(_mm256_and_ps(negative, greater(hx, kExpm1Big - 1)), set(-1.0F), r);
  r = select(_mm256_andnot_ps(negative, greater(hx, kExpm1Huge - 1)), set(kInf), r);
  r = select(greater(hx, 0x7f800000), add(x, x), r);  // NaN
  r = select(less(hx, kExpm1Small), x, r);
  return r;
}

// fdlibm tanhf on 8 lanes: tanh_scalar, branch by branch. Both |x| < 22
// branches divide by t + 2: one division of the lane's own numerator (2,
// or -t) serves both.
__m256 tanh_8(__m256 x) {
  const __m256 one = set(1.0F);
  const __m256 two = set(2.0F);
  const __m256 sign_bit = as_ps(splat(0x80000000U));
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);
  const __m256i ix = as_si(ax);
  const __m256 big = greater(ix, 0x3f800000 - 1);  // |x| >= 1
  const __m256 t = expm1_8(select(big, mul(two, ax), mul(set(-2.0F), ax)));
  const __m256 q = _mm256_div_ps(select(big, two, _mm256_xor_ps(t, sign_bit)), add(t, two));
  const __m256 z = select(big, sub(one, q), q);
  __m256 r = _mm256_xor_ps(select(less(ix, kTanhSaturate), z, one), sign);
  r = select(less(ix, kTanhTiny), mul(x, add(one, x)), r);
  const __m256 special = greater(ix, 0x7f800000 - 1);  // +-inf, NaN
  if (_mm256_movemask_ps(special) != 0) {
    const __m256 inv = _mm256_div_ps(one, x);
    r = select(special, select(sign, sub(inv, one), add(inv, one)), r);
  }
  return r;
}

// One 4-lane double half of glibc's expf, as exp_scalar computes it.
__m128 exp_half(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2n = _mm256_set1_pd(kExpInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  const __m256d kd_shifted = _mm256_add_pd(_mm256_mul_pd(inv_ln2n, xd), shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
  const __m256d r =
      _mm256_add_pd(_mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(kExpInvLn2NHi), xd), kd),
                    _mm256_mul_pd(_mm256_set1_pd(kExpInvLn2NLo), xd));
  const __m256i index = _mm256_and_si256(ki, _mm256_set1_epi64x(kExpTableSize - 1));
  const __m256i table = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExp2Table), index, 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(table, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpC0), r), _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpC2), r), _mm256_set1_pd(1.0));
  y = _mm256_add_pd(_mm256_mul_pd(z, r2), y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

// glibc expf on 8 lanes; |x| >= 88 and NaN lanes go through exp_scalar.
__m256 exp_8(__m256 x) {
  const __m256 y = _mm256_set_m128(exp_half(_mm256_extractf128_ps(x, 1)),
                                   exp_half(_mm256_castps256_ps128(x)));
  const __m256i abstop =
      _mm256_and_si256(_mm256_srli_epi32(as_si(x), 20), _mm256_set1_epi32(0x7ff));
  const int special = _mm256_movemask_ps(greater(abstop, kExpSpecialTop - 1));
  if (special == 0) return y;
  alignas(32) float xs[kLanes];
  alignas(32) float ys[kLanes];
  _mm256_store_ps(xs, x);
  _mm256_store_ps(ys, y);
  for (int l = 0; l < kLanes; ++l) {
    if ((special >> l & 1) != 0) ys[l] = exp_scalar(xs[l]);
  }
  return _mm256_load_ps(ys);
}

__m256 gelu_8(__m256 x) {
  const __m256 cubic = mul(mul(mul(set(kGeluCubic), x), x), x);
  const __m256 inner = mul(set(kGeluC), add(x, cubic));
  return mul(mul(set(0.5F), x), add(set(1.0F), tanh_8(inner)));
}

// Lane mask of the first `count` (< 8) lanes, for the tails.
__m256i head_mask(std::int64_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<std::int32_t>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// out[i] = f(x[i]) in 8-lane blocks; the tail runs as a zero-padded block.
// out may equal x.
template <__m256 (*F)(__m256)>
void map_8(std::int64_t count, const float* x, float* out) {
  std::int64_t i = 0;
  for (; i + kLanes <= count; i += kLanes) _mm256_storeu_ps(out + i, F(_mm256_loadu_ps(x + i)));
  if (i < count) {
    const __m256i mask = head_mask(count - i);
    _mm256_maskstore_ps(out + i, mask, F(_mm256_maskload_ps(x + i, mask)));
  }
}

// tensor::softmax_rows' arithmetic on one row: max_element's first
// maximum, x - max, e^(x - max) on 8 lanes, the denominator summed in
// double in element order, then one multiply by the rounded reciprocal.
void softmax_row(float* row, std::int64_t cols) {
  const float mx = *std::max_element(row, row + cols);
  const __m256 vmx = set(mx);
  std::int64_t j = 0;
  for (; j + kLanes <= cols; j += kLanes) {
    _mm256_storeu_ps(row + j, exp_8(sub(_mm256_loadu_ps(row + j), vmx)));
  }
  if (j < cols) {
    const __m256i mask = head_mask(cols - j);
    _mm256_maskstore_ps(row + j, mask, exp_8(sub(_mm256_maskload_ps(row + j, mask), vmx)));
  }
  double denom = 0.0;
  for (std::int64_t i = 0; i < cols; ++i) denom += row[i];
  const __m256 inv = set(static_cast<float>(1.0 / denom));
  for (j = 0; j + kLanes <= cols; j += kLanes) {
    _mm256_storeu_ps(row + j, mul(_mm256_loadu_ps(row + j), inv));
  }
  if (j < cols) {
    const __m256i mask = head_mask(cols - j);
    _mm256_maskstore_ps(row + j, mask, mul(_mm256_maskload_ps(row + j, mask), inv));
  }
}

}  // namespace

void tanh_f32_avx2(std::int64_t count, const float* x, float* out) {
  map_8<tanh_8>(count, x, out);
}
void expm1_f32_avx2(std::int64_t count, const float* x, float* out) {
  map_8<expm1_8>(count, x, out);
}
void exp_f32_avx2(std::int64_t count, const float* x, float* out) { map_8<exp_8>(count, x, out); }
void gelu_f32_avx2(std::int64_t count, const float* x, float* out) {
  map_8<gelu_8>(count, x, out);
}

void attend_f32_avx2(std::int64_t batch, std::int64_t tokens, std::int64_t dim,
                     std::int64_t heads, const float* q, const float* k, const float* v,
                     float* kt, float* probs, float* ctx) {
  // Per output element this is attend_f32_scalar's arithmetic, gemm's
  // small path: start at +0, add one product per p in ascending
  // order (a multiply, then a separate add), and skip p where the scaled
  // A element is 0. Only the output column is vectorized: QKᵀ runs 8 keys
  // per register against K transposed once per head into `kt`
  // (head_dim rows of tokens rounded up to 8, zero-padded), P·V 8 features
  // per register against V read in place.
  const std::int64_t head_dim = dim / heads;
  const std::int64_t stride = (tokens + kLanes - 1) / kLanes * kLanes;
  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim));
  for (std::int64_t p = 0; p < head_dim; ++p) {
    std::fill(kt + p * stride + tokens, kt + (p + 1) * stride, 0.0F);
  }
  for (std::int64_t s = 0; s < batch; ++s) {
    const std::int64_t sample = s * tokens * dim;
    for (std::int64_t h = 0; h < heads; ++h) {
      const std::int64_t head = sample + h * head_dim;
      for (std::int64_t j = 0; j < tokens; ++j) {
        const float* krow = k + head + j * dim;
        for (std::int64_t p = 0; p < head_dim; ++p) kt[p * stride + j] = krow[p];
      }
      for (std::int64_t i = 0; i < tokens; ++i) {
        const float* qrow = q + head + i * dim;
        float* prow = probs + ((s * heads + h) * tokens + i) * tokens;
        for (std::int64_t j = 0; j < tokens; j += kLanes) {
          __m256 acc = _mm256_setzero_ps();
          for (std::int64_t p = 0; p < head_dim; ++p) {
            const float a = scale * qrow[p];
            if (a == 0.0F) continue;
            acc = add(acc, mul(set(a), _mm256_loadu_ps(kt + p * stride + j)));
          }
          if (j + kLanes <= tokens) {
            _mm256_storeu_ps(prow + j, acc);
          } else {
            _mm256_maskstore_ps(prow + j, head_mask(tokens - j), acc);
          }
        }
        softmax_row(prow, tokens);
        float* crow = ctx + head + i * dim;
        for (std::int64_t j = 0; j < head_dim; j += kLanes) {
          const __m256i mask = head_mask(std::min(head_dim - j, kLanes));
          __m256 acc = _mm256_setzero_ps();
          for (std::int64_t p = 0; p < tokens; ++p) {
            const float a = prow[p];
            if (a == 0.0F) continue;
            acc = add(acc, mul(set(a), _mm256_maskload_ps(v + head + p * dim + j, mask)));
          }
          _mm256_maskstore_ps(crow + j, mask, acc);
        }
      }
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

void tanh_f32_avx2(std::int64_t count, const float* x, float* out) {
  tanh_f32_scalar(count, x, out);
}
void expm1_f32_avx2(std::int64_t count, const float* x, float* out) {
  expm1_f32_scalar(count, x, out);
}
void exp_f32_avx2(std::int64_t count, const float* x, float* out) {
  exp_f32_scalar(count, x, out);
}
void gelu_f32_avx2(std::int64_t count, const float* x, float* out) {
  gelu_f32_scalar(count, x, out);
}
void attend_f32_avx2(std::int64_t batch, std::int64_t tokens, std::int64_t dim,
                     std::int64_t heads, const float* q, const float* k, const float* v, float*,
                     float* probs, float* ctx) {
  attend_f32_scalar(batch, tokens, dim, heads, q, k, v, probs, ctx);
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor

#endif
