// Primitive layers: convolution, linear, normalization, activations, pooling.
//
// Conv2d and Linear implement QuantizableLayer — these are the layers whose
// weights receive mixed-precision bit-width assignments, matching the paper
// (all other parameters stay in fp32).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clado/nn/module.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"

namespace clado::nn {

/// 2-d convolution (NCHW), square kernels, optional grouping (depthwise when
/// groups == in_channels). Every forward path (forward, forward_into,
/// linear_map_on_last_input) is one call of the batched conv entry
/// tensor::kernels::conv2d_f32 at the active kernel level, bit-identical to
/// per-sample im2col + GEMM; backward keeps its per-sample im2col loop.
class Conv2d : public Module, public QuantizableLayer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride = 1, std::int64_t pad = 0, std::int64_t groups = 1,
         bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  std::string type_name() const override { return "Conv2d"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Conv2d>(*this); }

  // QuantizableLayer
  Parameter& weight_param() override { return weight_; }
  std::int64_t quant_out_channels() override { return out_channels_; }
  void set_weight_transform(std::function<Tensor(const Tensor&)> t) override {
    weight_transform_ = std::move(t);
  }
  Tensor linear_map_on_last_input(const Tensor& weight_like) override;

  /// Kaiming-normal weight init (fan-in), zero bias.
  void init(clado::tensor::Rng& rng);

  /// Per-output-channel affine update used by BatchNorm folding:
  ///   W[c, ...] *= scale[c];  bias[c] = bias[c] * scale[c] + shift[c].
  /// Enables the bias if the layer was built without one.
  void fold_scale_shift(std::span<const float> scale, std::span<const float> shift);

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return pad_; }
  std::int64_t groups() const { return groups_; }
  /// Raw bias pointer for the serving backends; nullptr without a bias.
  const float* bias_data() const { return has_bias_ ? bias_.value.data() : nullptr; }
  bool has_weight_transform() const { return static_cast<bool>(weight_transform_); }

  /// Geometry of this conv on an [*, C, h, w] input, for
  /// tensor::kernels::conv2d_f32 and its workspace query.
  clado::tensor::kernels::ConvGeometry geometry(std::int64_t h, std::int64_t w) const;

  /// Allocation-free forward for the serving plan: convolves `n` samples
  /// from `in` ([n, C, h, w] contiguous) into `out` using the raw weight
  /// (no transform) and the caller's scratch of
  /// conv2d_f32_workspace(active_level(), geometry(h, w)) elements. Runs the
  /// same conv entry call as forward(), so results are bit-identical.
  void forward_into(const float* in, std::int64_t n, std::int64_t h, std::int64_t w,
                    float* floats, std::int32_t* indices, float* out) const;

 private:
  std::int64_t in_channels_, out_channels_, kernel_, stride_, pad_, groups_;
  bool has_bias_;
  Parameter weight_;  // [out_c, in_c/groups, k, k]
  Parameter bias_;    // [out_c]
  std::function<Tensor(const Tensor&)> weight_transform_;

  // forward stash
  Tensor input_;             // [N, C, H, W]
  Tensor effective_weight_;  // weight after transform (or a copy)
};

/// Fully connected layer acting on the last axis; leading axes are folded
/// into a batch dimension.
class Linear : public Module, public QuantizableLayer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  std::string type_name() const override { return "Linear"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Linear>(*this); }

  // QuantizableLayer
  Parameter& weight_param() override { return weight_; }
  std::int64_t quant_out_channels() override { return out_features_; }
  void set_weight_transform(std::function<Tensor(const Tensor&)> t) override {
    weight_transform_ = std::move(t);
  }
  Tensor linear_map_on_last_input(const Tensor& weight_like) override;

  void init(clado::tensor::Rng& rng);

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  /// Raw bias pointer for the serving backends; nullptr without a bias.
  const float* bias_data() const { return has_bias_ ? bias_.value.data() : nullptr; }
  bool has_weight_transform() const { return static_cast<bool>(weight_transform_); }

  /// Allocation-free forward for the serving plan: `in` is [rows, in_f]
  /// contiguous, `out` is [rows, out_f]. Single GEMM over all rows plus the
  /// bias row-add — the exact sequence of forward(), so bit-identical.
  void forward_into(const float* in, std::int64_t rows, float* out) const;

 private:
  std::int64_t in_features_, out_features_;
  bool has_bias_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  std::function<Tensor(const Tensor&)> weight_transform_;

  Tensor input2d_;           // folded input [rows, in]
  Shape input_shape_;        // original shape for grad reshape
  Tensor effective_weight_;
};

/// Batch normalization over channel axis of NCHW input. Running statistics
/// are stored as non-trainable parameters so they serialize with the model.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1F, float eps = 1e-5F);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  std::string type_name() const override { return "BatchNorm2d"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<BatchNorm2d>(*this); }

  // Read access for BatchNorm folding (eval-mode affine form).
  std::int64_t channels() const { return channels_; }
  float eps() const { return eps_; }
  const Tensor& gamma() const { return gamma_.value; }
  const Tensor& beta() const { return beta_.value; }
  const Tensor& running_mean() const { return running_mean_.value; }
  const Tensor& running_var() const { return running_var_.value; }

  /// Allocation-free eval-mode forward: normalizes `n` samples of
  /// [channels(), hw] from `in` into `out` with the running statistics,
  /// bit-identical to forward() in eval mode, without the backward stash.
  void forward_into(const float* in, std::int64_t n, std::int64_t hw, float* out) const;

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Parameter running_mean_, running_var_;  // non-trainable buffers

  // stash
  Tensor xhat_;     // normalized input
  Tensor invstd_;   // [C]
  std::int64_t n_per_channel_ = 0;
  bool used_batch_stats_ = false;
};

/// Layer normalization over the last axis.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t features, float eps = 1e-5F);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  std::string type_name() const override { return "LayerNorm"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<LayerNorm>(*this); }

  std::int64_t features() const { return features_; }

  /// Allocation-free forward: normalizes `rows` rows of `features()` floats
  /// from `in` into `out`, bit-identical to forward() (same accumulation
  /// order and float rounding points), without stashing xhat/invstd.
  void forward_into(const float* in, std::int64_t rows, float* out) const;

 private:
  std::int64_t features_;
  float eps_;
  Parameter gamma_, beta_;

  Tensor xhat_;
  Tensor invstd_;  // per row
};

/// Pointwise nonlinearities used across the model zoo.
enum class Act { kRelu, kRelu6, kHardSwish, kHardSigmoid, kGelu, kSilu };

const char* act_name(Act a);
float act_forward(Act a, float x);
/// o[i] = act_forward(a, x[i]) for i < n, with the switch on `a` outside
/// the loop; o may equal x.
void act_forward_n(Act a, const float* x, float* o, std::int64_t n);
float act_backward(Act a, float x);  // d act / d x at pre-activation x

class Activation : public Module {
 public:
  explicit Activation(Act kind) : kind_(kind) {}

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return act_name(kind_); }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Activation>(*this); }

  Act kind() const { return kind_; }

 private:
  Act kind_;
  Tensor input_;
};

/// Max pooling with square window.
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad = 0);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "MaxPool2d"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<MaxPool2d>(*this); }

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return pad_; }

  /// Allocation-free forward (no argmax bookkeeping): pools [n, c, h, w]
  /// from `in` into `out`; bit-identical max selection to forward().
  void forward_into(const float* in, std::int64_t n, std::int64_t c, std::int64_t h,
                    std::int64_t w, float* out) const;

 private:
  std::int64_t kernel_, stride_, pad_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "GlobalAvgPool"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<GlobalAvgPool>(*this); }

  /// Allocation-free forward: averages [n, c, hw] planes from `in` into the
  /// [n, c] `out`, using the same double accumulator as forward().
  void forward_into(const float* in, std::int64_t n, std::int64_t c, std::int64_t hw,
                    float* out) const;

 private:
  Shape input_shape_;
};

/// No-op module; takes the place of layers removed by graph transforms
/// (e.g. BatchNorm2d after folding) so stage indices stay stable.
class Identity : public Module {
 public:
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad_output) override { return grad_output; }
  std::string type_name() const override { return "Identity"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Identity>(*this); }
};

/// Flattens all axes after the first: [N, ...] -> [N, rest].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "Flatten"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Flatten>(*this); }

 private:
  Shape input_shape_;
};

}  // namespace clado::nn
