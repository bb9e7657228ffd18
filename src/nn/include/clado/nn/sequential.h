// Sequential container with prefix-activation caching.
//
// The CLADO sensitivity sweep evaluates the network loss under O((|B|I)^2)
// weight perturbations of *one or two* layers at a time. For a perturbation
// whose earliest affected layer lives in top-level stage k, all activations
// before stage k equal the clean forward pass. Sequential::forward_cached /
// forward_span exploit that: the clean pass stores each stage's input, and
// perturbed passes re-execute only stages >= k.
#pragma once

#include <memory>
#include <vector>

#include "clado/nn/module.h"

namespace clado::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Deep copy: clones every child and copies the activation cache, so a
  /// copied container can serve cached_input immediately
  /// (the parallel sensitivity sweep clones an already-cached model).
  Sequential(const Sequential& other);

  std::unique_ptr<Module> clone() const override { return std::make_unique<Sequential>(*this); }

  /// Appends a child; returns a raw observer pointer for wiring.
  template <typename M, typename... Args>
  M* emplace(Args&&... args) {
    auto child = std::make_unique<M>(std::forward<Args>(args)...);
    M* raw = child.get();
    children_.push_back(std::move(child));
    names_.push_back(std::to_string(children_.size() - 1));
    return raw;
  }

  /// Appends a child with an explicit name (appears in hierarchical paths).
  template <typename M, typename... Args>
  M* emplace_named(const std::string& name, Args&&... args) {
    M* raw = emplace<M>(std::forward<Args>(args)...);
    names_.back() = name;
    return raw;
  }

  void push_back(std::unique_ptr<Module> child, std::string name);

  /// Swaps out a child in place, keeping its name (graph transforms such
  /// as BatchNorm folding). Invalidates the activation cache.
  void replace_child(std::size_t index, std::unique_ptr<Module> child);

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }
  const std::string& child_name(std::size_t i) const { return names_[i]; }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Clean forward pass that records each stage's input for later
  /// cached_input calls. Returns the network output.
  Tensor forward_cached(const Tensor& input);

  /// Runs stages [start, end) from an explicit input (independent of the
  /// forward_cached cache). When `record` is non-null it receives the input
  /// of every executed stage at its absolute index (resized to size()+1;
  /// record->at(size()) gets the final output). Used by the sensitivity
  /// engine to cache the activation tail of a singly-perturbed network.
  Tensor forward_span(std::size_t start, const Tensor& input, std::vector<Tensor>* record);

  /// Input of stage `k` recorded by the last forward_cached call.
  const Tensor& cached_input(std::size_t k) const;

  /// Drops cached activations (frees memory between sweeps).
  void clear_cache();

  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "Sequential"; }

 private:
  std::vector<std::unique_ptr<Module>> children_;
  std::vector<std::string> names_;
  // cache_[k] is the input to stage k; cache_[size()] is the final output.
  std::vector<Tensor> cache_;
};

}  // namespace clado::nn
