// Model: a network plus the metadata the MPQ pipeline needs — the ordered
// list of quantizable layers (the "I layers" of the paper), the candidate
// bit-width set B, the weight-quantization scheme, and the activation
// fake-quant handles.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clado/data/synthcv.h"
#include "clado/nn/sequential.h"
#include "clado/quant/act_quant.h"
#include "clado/quant/quantizer.h"

namespace clado::models {

using clado::data::Batch;
using clado::nn::QuantLayerRef;
using clado::nn::Tensor;

struct Model {
  std::string name;
  std::unique_ptr<clado::nn::Sequential> net;

  /// Quantizable layers in execution order with top-level stage indices
  /// (filled by finalize()). These are the I MPQ decision variables.
  std::vector<QuantLayerRef> quant_layers;

  /// Activation fake-quant modules owned by `net` (observer handles).
  std::vector<clado::quant::ActFakeQuant*> act_quants;

  clado::quant::WeightScheme scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  std::vector<int> candidate_bits;  ///< the set B, ascending

  std::int64_t num_classes = 10;
  std::int64_t image_size = 16;
  std::int64_t channels = 3;

  /// Rebuilds quant_layers with stage tags. Call once after construction
  /// and never after mutating the module tree.
  void finalize();

  /// Deep copy: clones the module tree (weights, buffers and activation-
  /// quant calibration included) and re-derives quant_layers / act_quants
  /// against the copy in module-tree order. The sensitivity sweep runs one
  /// clone per worker thread, whose weights that worker alone perturbs.
  Model clone() const;

  /// Mean loss of the network on a batch (eval mode, no caching).
  double loss(const Batch& batch);

  /// Top-1 accuracy on a batch (eval mode).
  double accuracy(const Batch& batch);

  /// Top-1 accuracy over `count` samples of `dataset`, evaluated in
  /// chunks of `batch_size`.
  double accuracy_on(const clado::data::SynthCvDataset& dataset, std::int64_t count,
                     std::int64_t batch_size = 128);

  /// Runs activation-quantization calibration: observe on `batch`, freeze
  /// ranges, switch to quantize mode. No-op if the model has no act quants.
  void calibrate_activations(const Batch& batch);

  /// Switches activation fake-quant mode for all handles.
  void set_act_quant_mode(clado::quant::ActQuantMode mode);

  /// Number of quantizable layers I.
  std::int64_t num_quant_layers() const {
    return static_cast<std::int64_t>(quant_layers.size());
  }

  /// Weight storage at uniform `bits` (e.g. the "INT8 size" of Table 1).
  double uniform_size_bytes(int bits) const;
};

}  // namespace clado::models
