// Portable quantize / requantize kernels. Two fp32<->int conversions
// frame every integer GEMM:
//
//   quantize_f32_s8:  the affine fp32 -> int8 input quantization (the exact
//                     arithmetic quant::quantize_int8 has always used, with
//                     the pre-integral value clamped to +/-2e9 so the float
//                     -> int conversion is defined for any finite input);
//                     the bit-exact reference for quantize_avx2.cpp.
//   requant_s32_f32:  int32 accumulator -> fp32 output rescale (+ optional
//                     per-column bias), written as a lone multiply then a
//                     separate add — the arithmetic of quant::qlinear, and
//                     of qconv2d_s8's fused epilogue at every level.
//
// Both round to nearest-even only (nearbyint under the default rounding
// mode, and the int32 -> fp32 conversion).
#include <algorithm>
#include <cmath>

#include "clado/tensor/kernels.h"
#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {
namespace detail {

void quantize_f32_s8_scalar(std::int64_t count, const float* x, float inv_scale,
                            std::int32_t zero_point, std::int8_t* out) {
  for (std::int64_t i = 0; i < count; ++i) {
    float r = std::nearbyint(x[i] * inv_scale);
    r = std::min(std::max(r, -2.0e9f), 2.0e9f);
    std::int32_t v = static_cast<std::int32_t>(r) + zero_point;
    v = std::min(std::max(v, -128), 127);
    out[i] = static_cast<std::int8_t>(v);
  }
}

}  // namespace detail

void requant_s32_f32(std::int64_t rows, std::int64_t n, const std::int32_t* acc, float rescale,
                     const float* bias, float* out) {
  if (bias == nullptr) {
    const std::int64_t total = rows * n;
    for (std::int64_t i = 0; i < total; ++i) {
      out[i] = rescale * static_cast<float>(acc[i]);
    }
    return;
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int32_t* arow = acc + i * n;
    float* orow = out + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float scaled = rescale * static_cast<float>(arow[j]);
      orow[j] = scaled + bias[j];
    }
  }
}

}  // namespace kernels
}  // namespace clado::tensor
