#include "clado/nn/sequential.h"

#include <stdexcept>

namespace clado::nn {

Sequential::Sequential(const Sequential& other)
    : Module(other), names_(other.names_) {
  children_.reserve(other.children_.size());
  for (const auto& child : other.children_) children_.push_back(child->clone());
}

void Sequential::push_back(std::unique_ptr<Module> child, std::string name) {
  children_.push_back(std::move(child));
  names_.push_back(std::move(name));
}

void Sequential::replace_child(std::size_t index, std::unique_ptr<Module> child) {
  if (index >= children_.size()) {
    throw std::out_of_range("Sequential::replace_child: index out of range");
  }
  children_[index] = std::move(child);
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& child : children_) x = child->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  for (std::size_t k = 0; k < children_.size(); ++k) {
    children_[k]->collect_params(join_name(prefix, names_[k]), out);
  }
}

void Sequential::collect_quant_layers(const std::string& prefix,
                                      std::vector<QuantLayerRef>& out) {
  for (std::size_t k = 0; k < children_.size(); ++k) {
    children_[k]->collect_quant_layers(join_name(prefix, names_[k]), out);
  }
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& child : children_) child->set_training(training);
}

}  // namespace clado::nn
