// Weight quantizers.
//
// Matches the paper's setup (§4.1 / §5.1): uniform quantization with
// MSE-optimal scale factors; per-tensor symmetric by default, per-channel
// affine for MobileNetV3 and ViT (the experiments marked "+" in Table 1):
//   Q(w, b) = clip(round(w / s), −2^{b−1}, 2^{b−1}−1) · s          (symmetric)
//   Q(w, b) = (clip(round(w / s) + z, 0, 2^b−1) − z) · s           (affine)
#pragma once

#include <cstdint>
#include <vector>

#include "clado/tensor/tensor.h"

namespace clado::quant {

using clado::tensor::Tensor;

enum class WeightScheme {
  kPerTensorSymmetric,  ///< paper default (§4.1)
  kPerChannelAffine,    ///< the "+" experiments (MobileNetV3, ViT)
};

/// Affine quantization parameters derived from a clipping range [lo, hi].
/// The range is first nudged to contain zero and the zero-point clamped to
/// the integer grid [0, 2^b − 1] so it is exactly representable — an
/// all-positive or all-negative range otherwise yields a zero-point outside
/// the grid, which integer hardware cannot realize (same nudge the
/// activation quantizer applies in ActFakeQuant::freeze_from_observed).
/// `lo` / `hi` in the result are recomputed from the clamped grid.
struct AffineQParams {
  float scale = 1.0F;
  float zero_point = 0.0F;  ///< integer value in [0, 2^b − 1]
  float lo = 0.0F;          ///< representable minimum: (0 − zp) · scale
  float hi = 0.0F;          ///< representable maximum: (2^b − 1 − zp) · scale
};

AffineQParams affine_qparams(float lo, float hi, int bits);

/// Fake-quantizes `w` to `bits` with the given symmetric scale.
Tensor quantize_symmetric(const Tensor& w, int bits, float scale);

/// Integer codes of the symmetric fake-quant: the same loop as
/// quantize_symmetric but returning q = clip(round(w/s), −2^{b−1},
/// 2^{b−1}−1) itself, so codes[i] * scale reproduces the fake-quantized
/// weight bit-for-bit. bits must be in [1, 8] (codes are int8; bits <= 4
/// codes lie in [-8, 7]). This is what the integer execution backends
/// store.
std::vector<std::int8_t> quantize_symmetric_codes(const Tensor& w, int bits, float scale);

/// Mean squared error between w and Q(w, bits, scale).
double quant_mse_symmetric(const Tensor& w, int bits, float scale);

/// Grid-searches the symmetric scale minimizing MSE (the calibration the
/// paper inherits from MPQCO/MQBench). Deterministic.
float mse_optimal_scale_symmetric(const Tensor& w, int bits,
                                  int grid_points = 80);

/// Fake-quantizes with the MSE-optimal symmetric scale.
Tensor quantize_symmetric_mse(const Tensor& w, int bits);

/// Per-output-channel affine fake quantization with per-channel MSE range
/// shrinking. `w`'s first axis is the channel axis ([out, ...]).
Tensor quantize_per_channel_affine_mse(const Tensor& w, int bits,
                                       int grid_points = 40);

/// Dispatches on scheme; the entry point the sensitivity engine uses to
/// build Δw_m^(i) = Q(w, b_m) − w.
Tensor quantize_weight(const Tensor& w, int bits, WeightScheme scheme);

/// Bytes occupied by `numel` weights stored at `bits` bits each.
double weight_bytes(std::int64_t numel, int bits);

}  // namespace clado::quant
