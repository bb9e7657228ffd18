#include "clado/quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "clado/tensor/check.h"

namespace clado::quant {

namespace {

void check_bits(int bits) {
  if (bits < 1 || bits > 16) throw std::invalid_argument("quantizer: bits must be in [1, 16]");
}

float max_abs(const float* data, std::int64_t n) {
  float m = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::abs(data[i]));
  return m;
}

// Symmetric fake-quant of a raw range, writing into out.
void fake_quant_symmetric(const float* w, std::int64_t n, int bits, float scale, float* out) {
  const float qmin = -std::ldexp(1.0F, bits - 1);        // −2^{b−1}
  const float qmax = std::ldexp(1.0F, bits - 1) - 1.0F;  // 2^{b−1}−1
  const float inv = 1.0F / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    float q = std::nearbyint(w[i] * inv);
    q = std::clamp(q, qmin, qmax);
    out[i] = q * scale;
  }
}

double mse_of_symmetric(const float* w, std::int64_t n, int bits, float scale) {
  const float qmin = -std::ldexp(1.0F, bits - 1);
  const float qmax = std::ldexp(1.0F, bits - 1) - 1.0F;
  const float inv = 1.0F / scale;
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    float q = std::nearbyint(w[i] * inv);
    q = std::clamp(q, qmin, qmax);
    const double d = static_cast<double>(q * scale) - w[i];
    acc += d * d;
  }
  return acc / static_cast<double>(n);
}

// Affine fake-quant of one channel given a clipping range [lo, hi].
double fake_quant_affine_range(const float* w, std::int64_t n, int bits, float lo, float hi,
                               float* out) {
  const float levels = std::ldexp(1.0F, bits) - 1.0F;  // 2^b − 1
  const AffineQParams p = affine_qparams(lo, hi, bits);
  double mse = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    float q = std::nearbyint(w[i] / p.scale) + p.zero_point;
    q = std::clamp(q, 0.0F, levels);
    const float deq = (q - p.zero_point) * p.scale;
    if (out != nullptr) out[i] = deq;
    const double d = static_cast<double>(deq) - w[i];
    mse += d * d;
  }
  return mse / static_cast<double>(n);
}

}  // namespace

AffineQParams affine_qparams(float lo, float hi, int bits) {
  check_bits(bits);
  const float levels = std::ldexp(1.0F, bits) - 1.0F;  // 2^b − 1
  // Nudge the range to contain zero: with e.g. an all-positive [lo, hi],
  // zp = round(−lo / scale) would land below 0 and survive unclamped —
  // dequantized values the integer grid cannot represent.
  lo = std::min(lo, 0.0F);
  hi = std::max(hi, 0.0F);
  AffineQParams p;
  p.scale = (hi - lo) / levels;
  if (p.scale <= 0.0F) p.scale = 1e-8F;
  p.zero_point = std::clamp(std::nearbyint(-lo / p.scale), 0.0F, levels);
  p.lo = (0.0F - p.zero_point) * p.scale;
  p.hi = (levels - p.zero_point) * p.scale;
  CLADO_CHECK(std::isfinite(p.scale) && p.scale > 0.0F,
              "affine_qparams: quantizer scale must be a positive finite value");
  CLADO_CHECK(p.zero_point >= 0.0F && p.zero_point <= levels,
              "affine_qparams: zero point must lie on the integer grid");
  return p;
}

Tensor quantize_symmetric(const Tensor& w, int bits, float scale) {
  check_bits(bits);
  if (scale <= 0.0F) throw std::invalid_argument("quantize_symmetric: scale must be positive");
  Tensor out(w.shape());
  fake_quant_symmetric(w.data(), w.numel(), bits, scale, out.data());
  return out;
}

std::vector<std::int8_t> quantize_symmetric_codes(const Tensor& w, int bits, float scale) {
  check_bits(bits);
  if (bits > 8) {
    throw std::invalid_argument("quantize_symmetric_codes: bits must be in [1, 8]");
  }
  if (scale <= 0.0F) {
    throw std::invalid_argument("quantize_symmetric_codes: scale must be positive");
  }
  // Exactly fake_quant_symmetric's arithmetic, minus the final * scale:
  // the q each iteration clamps is integral and within [-128, 127], so the
  // int8 cast below is lossless and codes[i] * scale == out[i] of the
  // fake-quant path, bit for bit.
  const float qmin = -std::ldexp(1.0F, bits - 1);
  const float qmax = std::ldexp(1.0F, bits - 1) - 1.0F;
  const float inv = 1.0F / scale;
  const std::int64_t n = w.numel();
  std::vector<std::int8_t> codes(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    float q = std::nearbyint(w.data()[i] * inv);
    q = std::clamp(q, qmin, qmax);
    codes[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(q);
  }
  return codes;
}

double quant_mse_symmetric(const Tensor& w, int bits, float scale) {
  check_bits(bits);
  return mse_of_symmetric(w.data(), w.numel(), bits, scale);
}

float mse_optimal_scale_symmetric(const Tensor& w, int bits, int grid_points) {
  check_bits(bits);
  const float amax = max_abs(w.data(), w.numel());
  CLADO_CHECK(std::isfinite(amax), "mse_optimal_scale_symmetric: weights must be finite");
  const float qmax = std::ldexp(1.0F, bits - 1) - 1.0F;
  if (amax == 0.0F) return 1e-8F;
  const float s_full = amax / qmax;  // scale that just covers the full range

  float best_scale = s_full;
  double best_mse = mse_of_symmetric(w.data(), w.numel(), bits, s_full);
  // Shrink the clipping range: at low bit-widths clipping outliers in
  // exchange for finer resolution reduces MSE substantially.
  for (int g = 1; g < grid_points; ++g) {
    const float c = 1.0F - 0.8F * static_cast<float>(g) / static_cast<float>(grid_points);
    const float s = s_full * c;
    const double mse = mse_of_symmetric(w.data(), w.numel(), bits, s);
    if (mse < best_mse) {
      best_mse = mse;
      best_scale = s;
    }
  }
  return best_scale;
}

Tensor quantize_symmetric_mse(const Tensor& w, int bits) {
  const float scale = mse_optimal_scale_symmetric(w, bits);
  return quantize_symmetric(w, bits, scale);
}

Tensor quantize_per_channel_affine_mse(const Tensor& w, int bits, int grid_points) {
  check_bits(bits);
  if (w.dim() < 1) throw std::invalid_argument("per-channel quant: rank >= 1 required");
  const std::int64_t channels = w.size(0);
  const std::int64_t per = w.numel() / channels;
  Tensor out(w.shape());
  std::vector<float> tmp(static_cast<std::size_t>(per));

  for (std::int64_t c = 0; c < channels; ++c) {
    const float* wc = w.data() + c * per;
    float* oc = out.data() + c * per;
    float lo = wc[0], hi = wc[0];
    for (std::int64_t i = 1; i < per; ++i) {
      lo = std::min(lo, wc[i]);
      hi = std::max(hi, wc[i]);
    }
    if (hi <= lo) {
      for (std::int64_t i = 0; i < per; ++i) oc[i] = lo;  // constant channel
      continue;
    }
    double best_mse = fake_quant_affine_range(wc, per, bits, lo, hi, oc);
    for (int g = 1; g < grid_points; ++g) {
      const float shrink = 1.0F - 0.7F * static_cast<float>(g) / static_cast<float>(grid_points);
      const double mse =
          fake_quant_affine_range(wc, per, bits, lo * shrink, hi * shrink, tmp.data());
      if (mse < best_mse) {
        best_mse = mse;
        std::copy(tmp.begin(), tmp.end(), oc);
      }
    }
  }
  return out;
}

Tensor quantize_weight(const Tensor& w, int bits, WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kPerTensorSymmetric: return quantize_symmetric_mse(w, bits);
    case WeightScheme::kPerChannelAffine: return quantize_per_channel_affine_mse(w, bits);
  }
  throw std::logic_error("quantize_weight: unknown scheme");
}

double weight_bytes(std::int64_t numel, int bits) {
  return static_cast<double>(numel) * bits / 8.0;
}

}  // namespace clado::quant
