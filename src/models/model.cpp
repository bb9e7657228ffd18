#include "clado/models/model.h"

#include <algorithm>
#include <stdexcept>

#include "clado/data/synthcv.h"
#include "clado/nn/loss.h"
#include "clado/quant/qat.h"

namespace clado::models {

void Model::finalize() {
  quant_layers.clear();
  for (std::size_t stage = 0; stage < net->size(); ++stage) {
    std::vector<QuantLayerRef> tmp;
    net->child(stage).collect_quant_layers(net->child_name(stage), tmp);
    for (auto& q : tmp) {
      q.stage = static_cast<int>(stage);
      quant_layers.push_back(q);
    }
  }
}

Model Model::clone() const {
  Model copy;
  copy.name = name;
  copy.scheme = scheme;
  copy.candidate_bits = candidate_bits;
  copy.num_classes = num_classes;
  copy.image_size = image_size;
  copy.channels = channels;
  copy.net = std::make_unique<clado::nn::Sequential>(*net);
  copy.finalize();
  if (copy.quant_layers.size() != quant_layers.size()) {
    throw std::logic_error("Model::clone: quant layer count diverged");
  }
  // Activation fake-quants are registered by the builders as top-level
  // stages, so a stage scan recovers the handles in registration order.
  for (std::size_t stage = 0; stage < copy.net->size(); ++stage) {
    if (auto* aq = dynamic_cast<clado::quant::ActFakeQuant*>(&copy.net->child(stage))) {
      copy.act_quants.push_back(aq);
    }
  }
  if (copy.act_quants.size() != act_quants.size()) {
    throw std::logic_error("Model::clone: act-quant handle count diverged");
  }
  return copy;
}

double Model::loss(const Batch& batch) {
  net->set_training(false);
  return clado::nn::cross_entropy(net->forward(batch.images), batch.labels);
}

double Model::accuracy(const Batch& batch) {
  net->set_training(false);
  return clado::nn::CrossEntropyLoss::accuracy(net->forward(batch.images), batch.labels);
}

double Model::accuracy_on(const clado::data::SynthCvDataset& dataset, std::int64_t count,
                          std::int64_t batch_size) {
  net->set_training(false);
  std::int64_t correct_weighted = 0;
  std::int64_t seen = 0;
  for (std::int64_t first = 0; first < count; first += batch_size) {
    const std::int64_t n = std::min(batch_size, count - first);
    const Batch batch = dataset.make_range_batch(first, n);
    const double acc = accuracy(batch);
    correct_weighted += static_cast<std::int64_t>(acc * static_cast<double>(n) + 0.5);
    seen += n;
  }
  return static_cast<double>(correct_weighted) / static_cast<double>(seen);
}

void Model::calibrate_activations(const Batch& batch) {
  if (act_quants.empty()) return;
  set_act_quant_mode(clado::quant::ActQuantMode::kObserve);
  net->set_training(false);
  net->forward(batch.images);
  for (auto* aq : act_quants) aq->freeze_from_observed();
  set_act_quant_mode(clado::quant::ActQuantMode::kQuantize);
}

void Model::set_act_quant_mode(clado::quant::ActQuantMode mode) {
  for (auto* aq : act_quants) aq->set_mode(mode);
}

double Model::uniform_size_bytes(int bits) const {
  return clado::quant::uniform_bytes(quant_layers, bits);
}

}  // namespace clado::models
