#include "clado/nn/module.h"

#include <stdexcept>

namespace clado::nn {

void Module::collect_params(const std::string&, std::vector<ParamRef>&) {}

void Module::collect_quant_layers(const std::string&, std::vector<QuantLayerRef>&) {}

std::unique_ptr<Module> Module::clone() const {
  throw std::logic_error("Module::clone: not implemented for " + type_name());
}

std::string join_name(const std::string& prefix, const std::string& leaf) {
  if (prefix.empty()) return leaf;
  if (leaf.empty()) return prefix;
  return prefix + "." + leaf;
}

StateDict extract_state(Module& root) {
  std::vector<ParamRef> params;
  root.collect_params("", params);
  StateDict dict;
  for (const auto& p : params) dict.emplace(p.name, p.param->value);
  return dict;
}

void load_state(Module& root, const StateDict& dict) {
  std::vector<ParamRef> params;
  root.collect_params("", params);
  for (auto& p : params) {
    const auto it = dict.find(p.name);
    if (it == dict.end()) {
      throw std::runtime_error("load_state: missing parameter " + p.name);
    }
    if (it->second.shape() != p.param->value.shape()) {
      throw std::runtime_error("load_state: shape mismatch for " + p.name + ": " +
                               it->second.shape_str() + " vs " + p.param->value.shape_str());
    }
    p.param->value = it->second;
    p.param->zero_grad();
  }
}

}  // namespace clado::nn
