#include "clado/serve/engine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "clado/backend/backend.h"
#include "clado/models/model.h"
#include "clado/nn/module.h"
#include "clado/obs/obs.h"
#include "clado/quant/freeze.h"
#include "clado/serve/plan.h"
#include "clado/tensor/env.h"

namespace clado::serve {

namespace {

bool resolve_backend(BackendMode mode) {
  if (mode != BackendMode::kAuto) return mode == BackendMode::kOn;
  const auto env = clado::tensor::env_str("CLADO_BACKEND");
  // Opt-in: integer execution changes the numerics the fake-quant pipeline
  // reported, so it must never switch on silently.
  if (!env.has_value() || *env == "off" || *env == "0") return false;
  if (*env == "on" || *env == "1") return true;
  throw std::invalid_argument("CLADO_BACKEND: expected on/1/off/0, got \"" + *env + "\"");
}

}  // namespace

Engine::Engine(clado::models::Model model, EngineSpec spec)
    : spec_(std::move(spec)), model_(std::move(model)) {
  if (spec_.replicas < 1) {
    throw std::invalid_argument("Engine: replicas must be >= 1");
  }
  if (spec_.max_batch < 1) {
    throw std::invalid_argument("Engine: max_batch must be >= 1");
  }
  backend_enabled_ = resolve_backend(spec_.backend);
  const clado::obs::Span span("serve/engine_load");
  model_.net->set_training(false);
  std::vector<clado::quant::WeightCodes> codes;
  const auto report = clado::quant::freeze_quantized(*model_.net, model_.quant_layers,
                                                     spec_.bits, model_.scheme,
                                                     backend_enabled_ ? &codes : nullptr);
  weight_bytes_ = report.weight_bytes;
  batchnorms_folded_ = report.batchnorms_folded;
  sample_shape_ = {model_.channels, model_.image_size, model_.image_size};

  PreparedMap prep_map;
  if (backend_enabled_) {
    // The exact integer realization of the frozen weights, keyed by module
    // for the plan compiler (reserved up front: the map points into it).
    prepared_.reserve(model_.quant_layers.size());
    for (std::size_t i = 0; i < model_.quant_layers.size(); ++i) {
      auto* layer = model_.quant_layers[i].layer;
      const std::int64_t rows = layer->quant_out_channels();
      const std::int64_t cols = layer->weight_param().value.numel() / rows;
      prepared_.push_back(clado::backend::prepare_layer(codes[i], rows, cols));
      if (prepared_[i].precision == clado::backend::Precision::kFp32) continue;
      const auto* mod = dynamic_cast<const clado::nn::Module*>(layer);
      if (mod != nullptr) prep_map.emplace(mod, &prepared_[i]);
    }
  }

  const clado::obs::Span compile_span("serve/plan_compile");
  plans_.reserve(static_cast<std::size_t>(spec_.replicas));
  std::int64_t backend_layers = 0;
  for (int r = 0; r < spec_.replicas; ++r) {
    plans_.push_back(std::make_unique<CompiledPlan>(*model_.net, sample_shape_, spec_.max_batch,
                                                    prep_map.empty() ? nullptr : &prep_map));
    backend_layers += static_cast<std::int64_t>(plans_.back()->backend_steps());
  }
  // infer() copies num_classes floats per row out of the plan's output.
  if (plans_.front()->output_shape() != Shape{num_classes()}) {
    throw std::invalid_argument("Engine: network output " +
                                Tensor(plans_.front()->output_shape()).shape_str() +
                                " per sample does not match num_classes " +
                                std::to_string(num_classes()));
  }
  clado::obs::counter("serve.plans_compiled").add(static_cast<std::int64_t>(plans_.size()));
  if (backend_layers > 0) clado::obs::counter("serve.backend_steps").add(backend_layers);
  clado::obs::counter("serve.engines_loaded").add();
}

CompiledPlan& Engine::checked_plan(int replica) const {
  if (replica < 0 || replica >= replicas()) {
    throw std::invalid_argument("Engine: replica " + std::to_string(replica) + " out of [0, " +
                                std::to_string(replicas()) + ")");
  }
  return *plans_[static_cast<std::size_t>(replica)];
}

Tensor Engine::infer(const Tensor& batch, int replica) {
  CompiledPlan& plan = checked_plan(replica);
  if (batch.dim() != 4 || batch.size(1) != sample_shape_[0] ||
      batch.size(2) != sample_shape_[1] || batch.size(3) != sample_shape_[2]) {
    throw std::invalid_argument("Engine::infer: input " + batch.shape_str() +
                                " does not batch samples of shape [" +
                                std::to_string(sample_shape_[0]) + ", " +
                                std::to_string(sample_shape_[1]) + ", " +
                                std::to_string(sample_shape_[2]) + "]");
  }
  const clado::obs::Span span("serve/engine_forward");
  const std::int64_t n = batch.size(0);
  const std::int64_t sample = plan.sample_numel();
  const std::int64_t classes = num_classes();
  Tensor out({n, classes});
  Tensor chunk_out;
  for (std::int64_t at = 0; at < n; at += spec_.max_batch) {
    const std::int64_t take = std::min(spec_.max_batch, n - at);
    std::memcpy(plan.input(), batch.data() + at * sample,
                sizeof(float) * static_cast<std::size_t>(take * sample));
    plan.run(take, chunk_out);
    std::memcpy(out.data() + at * classes, chunk_out.data(),
                sizeof(float) * static_cast<std::size_t>(take * classes));
  }
  return out;
}

float* Engine::batch_buffer(int replica) { return checked_plan(replica).input(); }

void Engine::infer_pinned(std::int64_t n, Tensor& out, int replica) {
  CompiledPlan& plan = checked_plan(replica);
  const clado::obs::Span span("serve/engine_forward");
  plan.run(n, out);
}

const CompiledPlan* Engine::plan(int replica) const { return &checked_plan(replica); }

}  // namespace clado::serve
