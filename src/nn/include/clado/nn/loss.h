// Task loss. The paper's objective L(θ) is the mean cross-entropy over the
// sensitivity set; this class computes it and produces the logits gradient
// for the backward pass.
#pragma once

#include <cstdint>
#include <vector>

#include "clado/nn/module.h"

namespace clado::nn {

/// Mean softmax cross-entropy of logits [N, K] against `labels`, accumulated
/// in double — sensitivity measurements subtract losses that agree to
/// several significant digits. Keeps nothing for a backward pass and
/// allocates nothing: every caller that needs only the loss (each sweep
/// measurement, Model::loss) uses it.
double cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels);

/// Mean softmax cross-entropy over a batch of logits [N, K].
class CrossEntropyLoss {
 public:
  /// Returns cross_entropy(logits, labels); stashes softmax probabilities
  /// for backward().
  double forward(const Tensor& logits, const std::vector<std::int64_t>& labels);

  /// d(mean loss)/d(logits); call after forward().
  Tensor backward() const;

  /// Fraction of rows whose argmax equals the label (top-1 accuracy).
  static double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels);

 private:
  Tensor probs_;
  std::vector<std::int64_t> labels_;
};

}  // namespace clado::nn
