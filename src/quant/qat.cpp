#include "clado/quant/qat.h"

#include <stdexcept>

#include "clado/nn/module.h"

namespace clado::quant {

WeightSnapshot::WeightSnapshot(const std::vector<QuantLayerRef>& layers) : layers_(layers) {
  saved_.reserve(layers_.size());
  for (const auto& l : layers_) saved_.push_back(l.layer->weight_param().value);
}

WeightSnapshot::~WeightSnapshot() {
  if (active_) restore();
}

void WeightSnapshot::restore() {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].layer->weight_param().value = saved_[i];
  }
  active_ = false;
}

namespace {

void check_sizes(const std::vector<QuantLayerRef>& layers, const std::vector<int>& bits) {
  if (layers.size() != bits.size()) {
    throw std::invalid_argument("quant: bits count != layer count");
  }
}

}  // namespace

void bake_weights(const std::vector<QuantLayerRef>& layers, const std::vector<int>& bits,
                  WeightScheme scheme, std::vector<WeightCodes>* codes_out) {
  check_sizes(layers, bits);
  if (codes_out != nullptr) {
    codes_out->assign(layers.size(), WeightCodes{});
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (bits[i] == 0) continue;
    auto& w = layers[i].layer->weight_param().value;
    if (scheme == WeightScheme::kPerTensorSymmetric && bits[i] <= 8) {
      // Split quantize_weight's symmetric path into scale search + apply so
      // the integer codes can be captured at the same scale; the baked
      // weight is bit-identical to the single-call path (quantize_weight
      // composes exactly these two steps).
      const float scale = mse_optimal_scale_symmetric(w, bits[i]);
      if (codes_out != nullptr) {
        (*codes_out)[i].codes = quantize_symmetric_codes(w, bits[i], scale);
        (*codes_out)[i].scale = scale;
        (*codes_out)[i].bits = bits[i];
      }
      w = quantize_symmetric(w, bits[i], scale);
    } else {
      w = quantize_weight(w, bits[i], scheme);
    }
  }
}

void install_fake_quant(const std::vector<QuantLayerRef>& layers, const std::vector<int>& bits,
                        WeightScheme scheme) {
  check_sizes(layers, bits);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (bits[i] == 0) {
      layers[i].layer->set_weight_transform(nullptr);
      continue;
    }
    const int b = bits[i];
    layers[i].layer->set_weight_transform(
        [b, scheme](const clado::nn::Tensor& w) { return quantize_weight(w, b, scheme); });
  }
}

void clear_fake_quant(const std::vector<QuantLayerRef>& layers) {
  for (const auto& l : layers) l.layer->set_weight_transform(nullptr);
}

double assignment_bytes(const std::vector<QuantLayerRef>& layers, const std::vector<int>& bits) {
  check_sizes(layers, bits);
  double bytes = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const int b = bits[i] == 0 ? 32 : bits[i];
    bytes += weight_bytes(layers[i].layer->weight_param().value.numel(), b);
  }
  return bytes;
}

double uniform_bytes(const std::vector<QuantLayerRef>& layers, int bits) {
  double bytes = 0.0;
  for (const auto& l : layers) {
    bytes += weight_bytes(l.layer->weight_param().value.numel(), bits);
  }
  return bytes;
}

}  // namespace clado::quant
