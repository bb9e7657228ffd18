// Applying an MPQ bit-width assignment to a model.
//
// Two ways of realizing α* on a network:
//   * bake_weights / WeightSnapshot::restore — PTQ evaluation: weights are
//     overwritten in place with Q(w, b) (and later restored). This is what
//     the sensitivity engine and the Table 1 / Figure 2 accuracy
//     measurements use.
//   * install_fake_quant — QAT: each quantizable layer gets a forward-time
//     weight transform w -> Q(w, b) while the underlying fp32 weight keeps
//     training through the straight-through estimator (Figure 3).
#pragma once

#include <cstdint>
#include <vector>

#include "clado/nn/module.h"
#include "clado/quant/quantizer.h"

namespace clado::quant {

using clado::nn::QuantLayerRef;

/// Saved fp32 weights; restores on demand or at scope exit.
class WeightSnapshot {
 public:
  explicit WeightSnapshot(const std::vector<QuantLayerRef>& layers);
  ~WeightSnapshot();
  WeightSnapshot(const WeightSnapshot&) = delete;
  WeightSnapshot& operator=(const WeightSnapshot&) = delete;

  /// Puts the saved weights back.
  void restore();

 private:
  std::vector<QuantLayerRef> layers_;
  std::vector<clado::nn::Tensor> saved_;
  bool active_ = true;
};

/// Integer realization of one baked layer: the exact codes the fake-quant
/// snapped the weights to (codes[i] * scale == baked weight, bit for bit),
/// captured when the scheme is per-tensor symmetric and bits is in [1, 8].
/// bits == 0 marks a layer with no integer realization (fp32 layer,
/// per-channel / affine scheme, or > 8 bits) — such layers execute on the
/// fp32 backend at serve time.
struct WeightCodes {
  std::vector<std::int8_t> codes;
  float scale = 1.0F;
  int bits = 0;
};

/// Overwrites each layer's weight with Q(w, bits[i], scheme). bits[i] == 0
/// leaves layer i in fp32. bits.size() must equal layers.size(). When
/// codes_out is non-null it is resized to one WeightCodes per layer,
/// holding the integer codes wherever the scheme/bits combination has an
/// exact integer realization (see WeightCodes).
void bake_weights(const std::vector<QuantLayerRef>& layers, const std::vector<int>& bits,
                  WeightScheme scheme, std::vector<WeightCodes>* codes_out = nullptr);

/// Installs fake-quant forward transforms for QAT (STE on the weights).
void install_fake_quant(const std::vector<QuantLayerRef>& layers, const std::vector<int>& bits,
                        WeightScheme scheme);

/// Removes all weight transforms.
void clear_fake_quant(const std::vector<QuantLayerRef>& layers);

/// Total weight storage in bytes for an assignment (Σ |w_i| · b_i / 8) —
/// the model-size measure of Eq. (2)'s constraint.
double assignment_bytes(const std::vector<QuantLayerRef>& layers, const std::vector<int>& bits);

/// Uniform-precision size in bytes (all layers at `bits`).
double uniform_bytes(const std::vector<QuantLayerRef>& layers, int bits);

}  // namespace clado::quant
