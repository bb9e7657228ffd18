// Portable fp32 -> int8 quantization: how a serving plan quantizes the
// input of each integer step before qconv2d_s8, with the pre-integral value
// clamped to +/-2e9 so the float -> int conversion is defined for any
// finite input; and the fp32 fake quantization of ActFakeQuant and the
// plan's fake-quant step. The bit-exact references for quantize_avx2.cpp.
// Both round to nearest-even only (the default rounding mode).
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

void fake_quant_f32_scalar(std::int64_t count, const float* x, float scale, float zero_point,
                           float levels, float* out) {
  const float inv = 1.0F / scale;
  for (std::int64_t i = 0; i < count; ++i) {
    // rint, not nearbyint: the same value in the default rounding mode
    // (signed zeros, NaN and infinities included), and GCC inlines it
    // where nearbyint stays a libm call per element.
    float q = std::rint(x[i] * inv) + zero_point;
    q = std::clamp(q, 0.0F, levels);
    out[i] = (q - zero_point) * scale;
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor
