// Module: the base class of every layer and block in the NN engine.
//
// The engine is a define-by-structure, forward/backward tape design:
//   * forward(x) computes the output and stashes whatever intermediates the
//     matching backward pass needs (single-threaded, one in-flight pass).
//   * backward(grad_out) consumes the stash and returns grad wrt the input,
//     accumulating parameter gradients in place.
// forward() serves training, calibration, the sensitivity sweep and the
// tests' eager reference. Serving never calls it: serve::CompiledPlan runs
// its own steps over an arena, through the layers' allocation-free
// forward_into seams and the helpers it shares with forward().
//
// Parameter and quantizable-layer introspection walk the module tree with
// hierarchical dot-separated names (mirroring the PyTorch naming the paper
// uses in its appendix tables).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clado/tensor/serialize.h"
#include "clado/tensor/tensor.h"

namespace clado::nn {

using clado::tensor::Shape;
using clado::tensor::StateDict;
using clado::tensor::Tensor;

/// A learnable tensor together with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
  /// False for buffers (e.g. BatchNorm running statistics) that serialize
  /// with the model but must not be touched by optimizers or weight decay.
  bool trainable = true;

  explicit Parameter(Tensor v, bool trainable_ = true)
      : value(std::move(v)), grad(value.shape()), trainable(trainable_) {}
  Parameter() = default;

  void zero_grad() { grad.fill(0.0F); }
};

/// Reference to a parameter with its hierarchical name; used by optimizers
/// and the state-dict (de)serializer.
struct ParamRef {
  std::string name;
  Parameter* param = nullptr;
};

/// Interface of layers whose weights participate in mixed-precision
/// quantization (Conv2d and Linear). The sensitivity engine perturbs
/// weights through this interface; QAT installs a weight transform.
class QuantizableLayer {
 public:
  virtual ~QuantizableLayer() = default;
  QuantizableLayer() = default;
  QuantizableLayer(const QuantizableLayer&) = default;
  QuantizableLayer& operator=(const QuantizableLayer&) = default;

  /// The flattened-weight parameter the MPQ problem assigns a bit-width to.
  virtual Parameter& weight_param() = 0;

  /// Output-channel count (per-channel quantization granularity).
  virtual std::int64_t quant_out_channels() = 0;

  /// Installs / clears a transform applied to the weight at forward time
  /// (fake quantization for QAT). Gradients flow straight-through to the
  /// underlying fp32 weight.
  virtual void set_weight_transform(std::function<Tensor(const Tensor&)> t) = 0;

  /// Applies the layer's linear map (no bias, no activation) to the input
  /// stashed by the most recent forward pass, using `weight_like` in place
  /// of the stored weight. Because the map is linear in the weight, calling
  /// this with a quantization delta Δw yields the layer-output perturbation
  /// directly — the Gauss–Newton proxy the MPQCO baseline optimizes.
  virtual Tensor linear_map_on_last_input(const Tensor& weight_like) = 0;
};

/// Reference to a quantizable layer with its name; `stage` is the index of
/// the top-level stage that contains the layer (filled by Model; the block
/// id of the BRECQ-style block ablation).
struct QuantLayerRef {
  std::string name;
  QuantizableLayer* layer = nullptr;
  int stage = -1;
};

class Module {
 public:
  virtual ~Module() = default;
  Module& operator=(const Module&) = delete;
  Module() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Deep copy of this module including parameters, buffers, and stashed
  /// forward state — the clone is immediately usable wherever the original
  /// is (the parallel sensitivity sweep runs one replica per worker). The
  /// default throws std::logic_error; every concrete module overrides it.
  virtual std::unique_ptr<Module> clone() const;

  /// Appends (name, parameter) pairs; `prefix` carries the hierarchical path.
  virtual void collect_params(const std::string& prefix, std::vector<ParamRef>& out);

  /// Appends quantizable layers in execution order.
  virtual void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out);

  /// Propagates training / evaluation mode (BatchNorm behaviour).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Short human-readable type tag for diagnostics.
  virtual std::string type_name() const = 0;

 protected:
  /// Subclasses copy member-wise (containers clone their children); the
  /// base copy is protected so Module values can only be copied as part of
  /// a concrete subclass, never sliced through the public API.
  Module(const Module&) = default;

  bool training_ = false;
};

/// Joins hierarchical names: "a" + "b" -> "a.b", "" + "b" -> "b".
std::string join_name(const std::string& prefix, const std::string& leaf);

/// Copies all parameters of a module tree into a state dict / back.
StateDict extract_state(Module& root);
void load_state(Module& root, const StateDict& dict);

}  // namespace clado::nn
