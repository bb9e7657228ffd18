#include "clado/quant/act_quant.h"

#include <algorithm>
#include <cmath>

#include "clado/tensor/rng.h"

namespace clado::quant {

namespace {

constexpr std::size_t kReservoirCap = 4096;

double affine_mse(const std::vector<float>& values, int bits, float lo, float hi) {
  const float levels = std::ldexp(1.0F, bits) - 1.0F;
  float scale = (hi - lo) / levels;
  if (scale <= 0.0F) scale = 1e-8F;
  const float zp = std::nearbyint(-lo / scale);
  double mse = 0.0;
  for (float v : values) {
    float q = std::nearbyint(v / scale) + zp;
    q = std::clamp(q, 0.0F, levels);
    const double d = static_cast<double>((q - zp) * scale) - v;
    mse += d * d;
  }
  return mse / static_cast<double>(values.size());
}

}  // namespace

const char* observer_name(ObserverKind k) {
  switch (k) {
    case ObserverKind::kMinMax: return "minmax";
    case ObserverKind::kPercentile: return "percentile";
    case ObserverKind::kMse: return "mse";
  }
  return "?";
}

ActFakeQuant::ActFakeQuant(int bits, ObserverKind observer, double percentile)
    : bits_(bits), observer_(observer), percentile_(percentile) {}

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
  // Reservoir sampling (Algorithm R) so percentile/MSE observers see an
  // unbiased, bounded, deterministic sample of all observed activations.
  for (float v : input.flat()) {
    ++seen_;
    if (reservoir_.size() < kReservoirCap) {
      reservoir_.push_back(v);
    } else {
      const std::uint64_t j = reservoir_rng_.uniform_int(static_cast<std::uint64_t>(seen_));
      if (j < kReservoirCap) reservoir_[static_cast<std::size_t>(j)] = v;
    }
  }
}

void ActFakeQuant::choose_range(float& lo, float& hi) const {
  switch (observer_) {
    case ObserverKind::kMinMax:
      lo = obs_min_;
      hi = obs_max_;
      return;
    case ObserverKind::kPercentile: {
      std::vector<float> sorted = reservoir_;
      std::sort(sorted.begin(), sorted.end());
      const auto n = static_cast<double>(sorted.size());
      auto at = [&](double q) {
        const auto idx = static_cast<std::size_t>(
            std::clamp(q * (n - 1.0), 0.0, n - 1.0));
        return sorted[idx];
      };
      lo = at(1.0 - percentile_);
      hi = at(percentile_);
      if (hi <= lo) {  // degenerate: fall back to min/max
        lo = obs_min_;
        hi = obs_max_;
      }
      return;
    }
    case ObserverKind::kMse: {
      // Shrink the min/max range toward zero; keep the best-MSE clip.
      float best_lo = obs_min_, best_hi = obs_max_;
      double best = affine_mse(reservoir_, bits_, obs_min_, obs_max_);
      constexpr int kGrid = 32;
      for (int g = 1; g < kGrid; ++g) {
        const float shrink = 1.0F - 0.8F * static_cast<float>(g) / kGrid;
        const float cand_lo = obs_min_ * shrink;
        const float cand_hi = obs_max_ * shrink;
        if (cand_hi <= cand_lo) break;
        const double mse = affine_mse(reservoir_, bits_, cand_lo, cand_hi);
        if (mse < best) {
          best = mse;
          best_lo = cand_lo;
          best_hi = cand_hi;
        }
      }
      lo = best_lo;
      hi = best_hi;
      return;
    }
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
      if (!inference_) input_ = input;
      Tensor out(input.shape());
      const float levels = std::ldexp(1.0F, bits_) - 1.0F;
      const float inv = 1.0F / scale_;
      const float* x = input.data();
      float* o = out.data();
      const std::int64_t n = input.numel();
      for (std::int64_t i = 0; i < n; ++i) {
        // rint, not nearbyint: the same value in the default rounding mode
        // (signed zeros, NaN and infinities included), and GCC inlines it
        // where nearbyint stays a libm call per element.
        float q = std::rint(x[i] * inv) + zero_point_;
        q = std::clamp(q, 0.0F, levels);
        o[i] = (q - zero_point_) * scale_;
      }
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
  float range_lo = 0.0F, range_hi = 0.0F;
  choose_range(range_lo, range_hi);
  const float levels = std::ldexp(1.0F, bits_) - 1.0F;
  float lo = std::min(range_lo, 0.0F);  // keep zero exactly representable
  float hi = std::max(range_hi, 0.0F);
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
  reservoir_.clear();
  seen_ = 0;
  reservoir_rng_ = clado::tensor::Rng{0x0B5E7E};
}

}  // namespace clado::quant
