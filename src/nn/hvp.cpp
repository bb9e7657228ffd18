#include "clado/nn/hvp.h"

#include <stdexcept>

#include "clado/tensor/ops.h"

namespace clado::nn {

void zero_all_grads(Module& root) {
  std::vector<ParamRef> refs;
  root.collect_params("", refs);
  for (auto& r : refs) r.param->zero_grad();
}

double loss_and_backward(Sequential& net, const Tensor& inputs,
                         const std::vector<std::int64_t>& labels) {
  CrossEntropyLoss criterion;
  const Tensor logits = net.forward(inputs);
  const double loss = criterion.forward(logits, labels);
  net.backward(criterion.backward());
  return loss;
}

double loss_only(Sequential& net, const Tensor& inputs,
                 const std::vector<std::int64_t>& labels) {
  return cross_entropy(net.forward(inputs), labels);
}

namespace {

// Collects the gradient restricted to the perturbation support, as one
// flat double vector in `out` (sized by caller).
void collect_support_grad(const std::vector<LayerDirection>& directions,
                          std::vector<double>& out) {
  std::size_t k = 0;
  for (const auto& dir : directions) {
    for (float g : dir.weight->grad.flat()) out[k++] = g;
  }
}

}  // namespace

double exact_vhv(Sequential& net, const Tensor& inputs,
                 const std::vector<std::int64_t>& labels,
                 const std::vector<LayerDirection>& directions, double t) {
  std::size_t support = 0;
  for (const auto& dir : directions) {
    if (dir.weight == nullptr || dir.delta.shape() != dir.weight->value.shape()) {
      throw std::invalid_argument("exact_vhv: direction/weight shape mismatch");
    }
    support += static_cast<std::size_t>(dir.delta.numel());
  }

  // Save clean weights.
  std::vector<Tensor> saved;
  saved.reserve(directions.size());
  for (const auto& dir : directions) saved.push_back(dir.weight->value);

  auto apply = [&](double sign) {
    for (std::size_t i = 0; i < directions.size(); ++i) {
      Tensor w = saved[i];
      clado::tensor::axpy(static_cast<float>(sign * t), directions[i].delta.flat(), w.flat());
      directions[i].weight->value = std::move(w);
    }
  };

  std::vector<double> g_plus(support), g_minus(support);

  apply(+1.0);
  zero_all_grads(net);
  loss_and_backward(net, inputs, labels);
  collect_support_grad(directions, g_plus);

  apply(-1.0);
  zero_all_grads(net);
  loss_and_backward(net, inputs, labels);
  collect_support_grad(directions, g_minus);

  // Restore.
  for (std::size_t i = 0; i < directions.size(); ++i) {
    directions[i].weight->value = saved[i];
  }
  zero_all_grads(net);

  // vᵀHv = vᵀ (g+ − g−) / (2t)
  double acc = 0.0;
  std::size_t k = 0;
  for (const auto& dir : directions) {
    for (float v : dir.delta.flat()) {
      acc += static_cast<double>(v) * (g_plus[k] - g_minus[k]);
      ++k;
    }
  }
  return acc / (2.0 * t);
}

}  // namespace clado::nn
