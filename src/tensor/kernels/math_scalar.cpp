// Portable transcendental kernels: the bit-exact references of
// math_avx2.cpp, and the one definition of tanh, expm1, exp and GELU in the
// repo's fp32 nets.
//
//   * tanh and expm1 are fdlibm's tanhf / expm1f (the five-term Q1-Q5
//     expm1 polynomial), which glibc ships unchanged: every result equals
//     the std::tanh(float) the repo's nets were trained and measured with.
//   * exp is glibc's expf (the 32-entry 2^(i/32) table and a cubic in
//     double) with every result its FMA build returns, computed without an
//     FMA (see exp_scalar), so every host gets the std::exp(float) an FMA
//     host computes.
//
// One rounding per operation, in the order written: the TU is compiled with
// -ffp-contract=off so no multiply-add is ever fused (a -march=native build
// would otherwise be free to).
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {
namespace detail {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

float expm1_scalar(float x) {
  const std::uint32_t sign = bits(x) & 0x80000000U;
  const std::uint32_t hx = bits(x) & 0x7fffffffU;

  if (hx >= kExpm1Big) {        // |x| >= 27 ln2
    if (hx >= kExpm1Huge) {     // |x| >= 88.721...
      if (hx > 0x7f800000U) return x + x;                // NaN
      if (hx == 0x7f800000U) return sign == 0 ? x : -1.0F;  // e^(+-inf) - 1
      if (x > kExpm1Overflow) return kInf;
    }
    if (sign != 0) return kExpm1Tiny - 1.0F;  // -1
  }

  // Argument reduction: x = k ln2 + (hi - lo), |hi - lo| <= ln2 / 2.
  std::int32_t k = 0;
  float c = 0.0F;
  if (hx > kExpm1HalfLn2) {
    float hi;
    float lo;
    if (hx < kExpm1ThreeHalvesLn2) {
      if (sign == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (sign == 0 ? 0.5F : -0.5F));
      const auto t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // exact
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1Small) {  // |x| < 2^-25
    return x;
  }

  // x is now in the primary range.
  const float hfx = 0.5F * x;
  const float hxs = x * hfx;
  const float q4 = kExpm1Q4 + hxs * kExpm1Q5;
  const float r1 = 1.0F + hxs * (kExpm1Q1 + hxs * (kExpm1Q2 + hxs * (kExpm1Q3 + hxs * q4)));
  float t = 3.0F - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0F - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5F * (x - e) - 0.5F;
  if (k == 1) {
    if (x < -0.25F) return -2.0F * (e - (x + 0.5F));
    return 1.0F + 2.0F * (x - e);
  }
  const std::uint32_t k_exp = static_cast<std::uint32_t>(k) << 23;  // adds k to an exponent
  if (k <= -2 || k > 56) {
    float y = 1.0F - (e - x);
    if (k == 128) {
      y = y * 2.0F * 0x1p127F;
    } else {
      y = from_bits(bits(y) + k_exp);
    }
    return y - 1.0F;
  }
  float y;
  if (k < 23) {
    t = from_bits(0x3f800000U - (0x1000000U >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += 1.0F;
  }
  return from_bits(bits(y) + k_exp);
}

}  // namespace

float tanh_scalar(float x) {
  const std::uint32_t ix = bits(x) & 0x7fffffffU;
  const bool negative = (bits(x) & 0x80000000U) != 0;
  if (ix >= 0x7f800000U) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0F / x - 1.0F : 1.0F / x + 1.0F;
  }
  float z;
  if (ix < kTanhSaturate) {        // |x| < 22
    if (ix < kTanhTiny) return x * (1.0F + x);  // |x| < 2^-55, +-0 included
    if (ix >= 0x3f800000U) {       // |x| >= 1
      const float t = expm1_scalar(2.0F * std::fabs(x));
      z = 1.0F - 2.0F / (t + 2.0F);
    } else {
      const float t = expm1_scalar(-2.0F * std::fabs(x));
      z = -t / (t + 2.0F);
    }
  } else {
    z = 1.0F - kExpm1Tiny;  // 1
  }
  return negative ? -z : z;
}

float exp_scalar(float x) {
  const std::uint32_t abstop = bits(x) >> 20 & 0x7ffU;
  if (abstop >= kExpSpecialTop) {  // |x| >= 88, or NaN
    if (bits(x) == 0xff800000U) return 0.0F;  // e^-inf
    if (abstop >= 0x7f8U) return x + x;       // +inf, NaN
    if (x > kExpOverflow) return kInf;
    if (x < kExpUnderflow) return 0.0F;
  }
  const double xd = x;
  // x * 32 / ln2 = k + r with k = round(x * 32 / ln2), rounded to nearest
  // by adding the shift.
  const double kd_shifted = kExpInvLn2N * xd + kExpShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd_shifted);
  const double kd = kd_shifted - kExpShift;
  // r = x * InvLn2N - kd with one rounding, the value glibc's FMA build
  // gets from fma(InvLn2N, x, -kd): Hi * x and Lo * x are exact (at most
  // 53 and 48 significant bits), and so is Hi * x - kd (Sterbenz: Hi * |x|
  // is above |x * InvLn2N|, which lies within 1/2 of |kd| and above 1/2
  // when kd != 0, so Hi * x is within a factor of 2 of kd).
  const double r = (kExpInvLn2NHi * xd - kd) + kExpInvLn2NLo * xd;
  // e^x = 2^(k/32) * 2^(r/32) ~= s * (C0 r^3 + C1 r^2 + C2 r + 1). glibc's
  // FMA build fuses the three polynomial steps; rounding the multiplies
  // separately moves y by an ulp for some x but changes no float result
  // (checked on every float).
  const double s = std::bit_cast<double>(kExp2Table[ki % kExpTableSize] + (ki << 47));
  const double z = kExpC0 * r + kExpC1;
  const double r2 = r * r;
  double y = kExpC2 * r + 1.0;
  y = z * r2 + y;
  return static_cast<float>(y * s);
}

float gelu_scalar(float x) {
  const float inner = kGeluC * (x + kGeluCubic * x * x * x);
  return 0.5F * x * (1.0F + tanh_scalar(inner));
}

void tanh_f32_scalar(std::int64_t count, const float* x, float* out) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = tanh_scalar(x[i]);
}
void expm1_f32_scalar(std::int64_t count, const float* x, float* out) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = expm1_scalar(x[i]);
}
void exp_f32_scalar(std::int64_t count, const float* x, float* out) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = exp_scalar(x[i]);
}
void gelu_f32_scalar(std::int64_t count, const float* x, float* out) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = gelu_scalar(x[i]);
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor
