// Sequential: an ordered container of named child modules. forward() runs
// the children in order, backward() in reverse. It keeps no activations of
// its own; the sensitivity sweep's prefix cache is the arena of the
// keep_activations serve::CompiledPlan compiled over it.
#pragma once

#include <memory>
#include <vector>

#include "clado/nn/module.h"

namespace clado::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Deep copy: clones every child (the sensitivity sweep runs one copy of
  /// the model per worker).
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
  /// as BatchNorm folding).
  void replace_child(std::size_t index, std::unique_ptr<Module> child);

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }
  const std::string& child_name(std::size_t i) const { return names_[i]; }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "Sequential"; }

 private:
  std::vector<std::unique_ptr<Module>> children_;
  std::vector<std::string> names_;
};

}  // namespace clado::nn
