// Portable fp32 -> int8 quantization: how a serving plan quantizes the
// input of each integer step before qconv2d_s8, with the pre-integral value
// clamped to +/-2e9 so the float -> int conversion is defined for any
// finite input. The bit-exact reference for quantize_avx2.cpp. Rounds to
// nearest-even only (nearbyint under the default rounding mode).
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
}  // namespace kernels
}  // namespace clado::tensor
