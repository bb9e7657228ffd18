// clado::backend — per-layer execution precisions.
//
// Everywhere else in the repo a bit-width assignment is *simulated*: the
// fake-quant pipeline snaps fp32 weights onto the integer grid but still
// multiplies in float. This subsystem executes the assignment the way the
// deployment hardware would: each quantized layer carries a PreparedLayer
// (its exact integer codes, packed once into the layout of the integer
// conv entry tensor::kernels::qconv2d_s8) and serve::CompiledPlan runs that
// kernel on it:
//
//   fp32  layers with no integer realization (bits == 0, affine /
//         per-channel schemes, > 8 bits) keep the fp32 kernels.
//   int8  5-8-bit codes.
//   int4  1-4-bit codes: int8 codes in [-8, 7], widened at prepare time
//         into the same int16 k-pairs as int8, so both precisions share
//         one kernel.
//
// Precision boundaries stay in fp32: inputs are quantized to int8 right
// before the integer kernel and its int32 sums are requantized to fp32
// inside it, which is exactly the semantics the fake-quant sensitivity
// sweep calibrated (weights on the grid, activations on the grid, float at
// layer seams). serve::CompiledPlan selects a precision per layer from the
// WeightCodes captured when serve::Engine freezes.
#pragma once

#include <cstdint>
#include <vector>

#include "clado/quant/qat.h"
#include "clado/tensor/kernels.h"

namespace clado::backend {

/// Arithmetic a layer executes in.
enum class Precision {
  kFp32,
  kInt8,
  kInt4,
};

/// Stable lowercase name ("fp32", "int8", "int4") — appears in plan dumps,
/// obs metrics and test output.
const char* precision_name(Precision p);

/// The precision that executes a layer quantized to `bits`: 0 (fp32 layer)
/// and anything above 8 stay fp32; 1-4 bits run as int4 (codes fit
/// [-8, 7]); 5-8 bits as int8.
Precision precision_for_bits(int bits);

/// Immutable per-layer execution material, built once at engine freeze and
/// shared by every replica's plan. `n` is the number of weight rows
/// (output channels / features), `k` the reduction length; the integer
/// precisions carry the codes packed by tensor::kernels::pack_qweights.
struct PreparedLayer {
  Precision precision = Precision::kFp32;
  std::int64_t n = 0;
  std::int64_t k = 0;
  float w_scale = 1.0F;               ///< codes * w_scale == baked weight
  std::vector<std::int16_t> w_pairs;  ///< packed int16 k-pairs (integer precisions)
  std::vector<std::int32_t> w_sums;   ///< per-row code sums [n]

  /// The kernel's view of the packed weights.
  clado::tensor::kernels::QWeights weights() const {
    return {n, k, w_pairs.data(), w_sums.data()};
  }
};

/// Builds the prepared form of one layer from the codes captured by
/// quant::bake_weights: integer codes are packed into the kernel's int16
/// k-pair layout with their row sums, and codes.bits == 0 yields a kFp32
/// PreparedLayer. Throws std::invalid_argument when codes.codes.size() !=
/// n * k, or when an int4 layer holds a code outside [-8, 7].
PreparedLayer prepare_layer(const clado::quant::WeightCodes& codes, std::int64_t n,
                            std::int64_t k);

}  // namespace clado::backend
