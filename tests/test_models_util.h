// Shared tiny-model fixtures for core-pipeline tests: small enough for
// brute-force cross-checks, structured enough (residual block, multiple
// stages) to exercise prefix caching and block masks. Also the eager
// reference that serving tests compare compiled engines against.
#pragma once

#include <memory>
#include <vector>

#include "clado/data/synthcv.h"
#include "clado/models/model.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"
#include "clado/nn/loss.h"
#include "clado/quant/freeze.h"
#include "clado/tensor/rng.h"

namespace clado::testing {

using clado::models::Model;
using clado::tensor::Rng;

/// 4 quantizable layers (stem conv, two block convs, fc), B = {2, 8}.
inline Model make_tiny_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "tiny";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {2, 8};
  m.scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  m.num_classes = 5;
  m.image_size = 8;

  {
    auto stem = std::make_unique<Sequential>();
    stem->emplace_named<Conv2d>("conv1", 3, 4, 3, 1, 1)->init(rng);
    stem->emplace_named<Activation>("act", Act::kRelu);
    m.net->push_back(std::move(stem), "stem");
  }
  {
    auto main = std::make_unique<Sequential>();
    main->emplace_named<Conv2d>("conv1", 4, 4, 3, 1, 1)->init(rng);
    main->emplace_named<Activation>("act", Act::kRelu);
    main->emplace_named<Conv2d>("conv2", 4, 4, 3, 1, 1)->init(rng);
    m.net->push_back(std::make_unique<ResidualBlock>(std::move(main), nullptr, true), "block");
  }
  m.net->emplace_named<GlobalAvgPool>("pool");
  m.net->emplace_named<Linear>("fc", 4, 5)->init(rng);
  m.finalize();
  return m;
}

/// Random-noise batch with cyclic labels (no real structure needed for
/// correctness tests).
inline clado::data::Batch make_noise_batch(Rng& rng, std::int64_t n = 16,
                                           std::int64_t classes = 5) {
  clado::data::Batch batch;
  batch.images = clado::nn::Tensor::randn({n, 3, 8, 8}, rng);
  for (std::int64_t i = 0; i < n; ++i) batch.labels.push_back(i % classes);
  return batch;
}

/// Mean CE loss via a plain full forward (no caching).
inline double full_loss(Model& m, const clado::data::Batch& batch) {
  clado::nn::CrossEntropyLoss criterion;
  m.net->set_training(false);
  return criterion.forward(m.net->forward(batch.images), batch.labels);
}

/// Freezes `model` in place exactly as serve::Engine's constructor does
/// (eval mode, BatchNorm folded, weights overwritten with Q(w, bits[i])),
/// so the frozen twin's eager Sequential::forward — the same forward
/// ptq_top1 runs — is the reference a compiled Engine must match bit for
/// bit.
inline void freeze_reference(Model& model, const std::vector<int>& bits) {
  model.net->set_training(false);
  clado::quant::freeze_quantized(*model.net, model.quant_layers, bits, model.scheme);
}

}  // namespace clado::testing
