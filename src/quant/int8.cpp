#include "clado/quant/int8.h"

#include <algorithm>
#include <cmath>

#include "clado/tensor/check.h"

namespace clado::quant {

QParams choose_qparams(float lo, float hi) {
  lo = std::min(lo, 0.0F);
  hi = std::max(hi, 0.0F);
  // Degenerate-range guard with a RELATIVE epsilon: an absolute 1e-8 nudge
  // rounds away entirely at large magnitudes (lo + 1e-8F == lo for any
  // |lo| >= ~1 in fp32), leaving scale == 0 and inf/NaN quantized codes.
  const float eps = std::max(1e-8F, std::max(std::abs(lo), std::abs(hi)) * 1e-6F);
  if (hi - lo < eps) hi = lo + eps;
  QParams p;
  p.scale = (hi - lo) / 255.0F;
  p.zero_point =
      static_cast<std::int32_t>(std::nearbyint(-128.0F - lo / p.scale));
  p.zero_point = std::clamp(p.zero_point, -128, 127);
  // All-negative input ranges drive the pre-clamp zero point to its +127
  // extreme (hi nudged to 0 puts lo/scale at -255); the clamp must leave it
  // on the signed-int8 grid or the padding code of the integer conv — a
  // literal int8 cast of zero_point — would encode a value that is not
  // "real 0".
  CLADO_CHECK(p.zero_point >= -128 && p.zero_point <= 127,
              "choose_qparams: zero point must lie on the signed int8 grid");
  CLADO_CHECK(std::isfinite(p.scale) && p.scale > 0.0F,
              "choose_qparams: scale must be a positive finite value");
  return p;
}

}  // namespace clado::quant
