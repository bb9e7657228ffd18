#include "clado/quant/act_quant.h"

#include <algorithm>
#include <cmath>

#include "clado/tensor/kernels.h"

namespace clado::quant {

void ActFakeQuant::observe(const Tensor& input) {
  if (input.numel() == 0) return;
  const float lo = input.min();
  const float hi = input.max();
  if (!observed_) {
    obs_min_ = lo;
    obs_max_ = hi;
    observed_ = true;
  } else {
    obs_min_ = std::min(obs_min_, lo);
    obs_max_ = std::max(obs_max_, hi);
  }
}

Tensor ActFakeQuant::forward(const Tensor& input) {
  switch (mode_) {
    case ActQuantMode::kBypass:
      return input;
    case ActQuantMode::kObserve:
      observe(input);
      return input;
    case ActQuantMode::kQuantize: {
      if (!calibrated_) return input;
      input_ = input;
      Tensor out(input.shape());
      namespace kernels = clado::tensor::kernels;
      kernels::fake_quant_f32(kernels::active_level(), input.numel(), input.data(), scale_,
                              zero_point_, std::ldexp(1.0F, bits_) - 1.0F, out.data());
      return out;
    }
  }
  return input;
}

Tensor ActFakeQuant::backward(const Tensor& grad_output) {
  if (mode_ != ActQuantMode::kQuantize || !calibrated_) return grad_output;
  // Straight-through estimator with clipping: gradient passes where the
  // activation fell inside the representable range, is zero where it was
  // clipped.
  Tensor grad = grad_output;
  const float* x = input_.data();
  float* g = grad.data();
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    if (x[i] < lo_ || x[i] > hi_) g[i] = 0.0F;
  }
  return grad;
}

void ActFakeQuant::freeze_from_observed() {
  if (!observed_) return;
  const float levels = std::ldexp(1.0F, bits_) - 1.0F;
  float lo = std::min(obs_min_, 0.0F);  // keep zero exactly representable
  float hi = std::max(obs_max_, 0.0F);
  if (hi - lo < 1e-8F) hi = lo + 1e-8F;
  scale_ = (hi - lo) / levels;
  zero_point_ = std::nearbyint(-lo / scale_);
  lo_ = -zero_point_ * scale_;
  hi_ = (levels - zero_point_) * scale_;
  calibrated_ = true;
}

void ActFakeQuant::reset_observer() {
  observed_ = false;
  calibrated_ = false;
  obs_min_ = obs_max_ = 0.0F;
}

}  // namespace clado::quant
