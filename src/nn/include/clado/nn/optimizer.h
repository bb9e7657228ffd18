// SGD with Nesterov-free momentum, decoupled weight decay, and a cosine
// learning-rate schedule — the trainer used to pretrain the model zoo and
// for quantization-aware fine-tuning (Figure 3 experiments).
#pragma once

#include <cstdint>
#include <vector>

#include "clado/nn/module.h"

namespace clado::nn {

struct SgdConfig {
  float lr = 0.05F;
  float momentum = 0.9F;
  float weight_decay = 5e-4F;
};

class Sgd {
 public:
  /// Binds to the trainable parameters of a module tree. Parameter pointers
  /// must outlive the optimizer.
  Sgd(Module& root, SgdConfig config);

  /// Applies one update using currently accumulated gradients.
  void step();

  /// Clears every bound parameter's gradient.
  void zero_grad();

  float lr() const { return config_.lr; }

  /// Cosine decay from `base_lr` to ~0 over `total_steps`.
  void cosine_lr(float base_lr, std::int64_t step, std::int64_t total_steps);

  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

 private:
  SgdConfig config_;
  std::vector<Parameter*> params_;
  std::vector<Tensor> velocity_;
};

}  // namespace clado::nn
