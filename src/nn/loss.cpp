#include "clado/nn/loss.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "clado/tensor/ops.h"

namespace clado::nn {

double cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  if (logits.dim() != 2) throw std::invalid_argument("cross_entropy: logits must be [N, K]");
  const std::int64_t n = logits.size(0);
  const std::int64_t k = logits.size(1);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("cross_entropy: label count mismatch");
  }
  double loss = 0.0;
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int64_t y = labels[static_cast<std::size_t>(r)];
    if (y < 0 || y >= k) throw std::invalid_argument("cross_entropy: label out of range");
    const float* row = logits.data() + r * k;
    const float log_prob = row[y] - clado::tensor::log_sum_exp(row, k);
    loss -= log_prob;
  }
  return loss / static_cast<double>(n);
}

double CrossEntropyLoss::forward(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  const double loss = cross_entropy(logits, labels);
  const std::int64_t n = logits.size(0);
  const std::int64_t k = logits.size(1);
  probs_ = Tensor({n, k});
  clado::tensor::log_softmax_rows(logits.data(), n, k, probs_.data());
  for (std::int64_t i = 0; i < n * k; ++i) probs_.data()[i] = std::exp(probs_.data()[i]);
  labels_ = labels;
  return loss;
}

Tensor CrossEntropyLoss::backward() const {
  const std::int64_t n = probs_.size(0);
  const std::int64_t k = probs_.size(1);
  Tensor grad = probs_;
  const float inv_n = 1.0F / static_cast<float>(n);
  for (std::int64_t r = 0; r < n; ++r) {
    grad.data()[r * k + labels_[static_cast<std::size_t>(r)]] -= 1.0F;
  }
  grad *= inv_n;
  return grad;
}

double CrossEntropyLoss::accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  const std::int64_t n = logits.size(0);
  const std::int64_t k = logits.size(1);
  std::int64_t correct = 0;
  for (std::int64_t r = 0; r < n; ++r) {
    const float* row = logits.data() + r * k;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == labels[static_cast<std::size_t>(r)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace clado::nn
