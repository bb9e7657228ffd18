// Affine int8 quantization parameters of an activation range.
//
// Fake quantization (the rest of this library) simulates quantized
// inference in float. The integer serving path (serve::CompiledPlan over
// tensor::kernels::qconv2d_s8) executes it the way fixed-point hardware
// would: int8 storage, int32 accumulation, float only at the final
// rescale. choose_qparams picks the int8 grid of an input whose range is
// only known at run time.
#pragma once

#include <cstdint>

namespace clado::quant {

/// Affine parameters covering [lo, hi] with zero exactly representable.
struct QParams {
  float scale = 1.0F;
  std::int32_t zero_point = 0;
};
QParams choose_qparams(float lo, float hi);

}  // namespace clado::quant
