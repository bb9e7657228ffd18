// Composite blocks: residual blocks (ResNet/RegNet), squeeze-excitation
// (MobileNetV3), transformer encoder blocks and patch embedding (ViT).
//
// Blocks are the "stages" of a model's top-level Sequential; the
// sensitivity engine's prefix-activation cache works at stage granularity.
#pragma once

#include <cstdint>
#include <memory>

#include "clado/nn/attention.h"
#include "clado/nn/layers.h"
#include "clado/nn/module.h"
#include "clado/nn/sequential.h"
#include "clado/tensor/rng.h"

namespace clado::nn {

/// y = act(main(x) + shortcut(x)); shortcut may be empty (identity).
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::unique_ptr<Sequential> main, std::unique_ptr<Sequential> shortcut,
                bool final_relu = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "ResidualBlock"; }
  ResidualBlock(const ResidualBlock& other);
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<ResidualBlock>(*this);
  }

  /// Sub-graph access for graph transforms (BatchNorm folding).
  Sequential& main_path() { return *main_; }
  Sequential* shortcut_path() { return shortcut_.get(); }
  bool final_relu() const { return final_relu_; }

 private:
  std::unique_ptr<Sequential> main_;
  std::unique_ptr<Sequential> shortcut_;  // nullptr => identity
  bool final_relu_;
  Tensor pre_act_;  // main + shortcut, before the final ReLU
};

/// Squeeze-and-excitation: channel gating by a two-layer bottleneck MLP on
/// globally pooled features (MobileNetV3 style, hard-sigmoid gate).
class SEBlock : public Module {
 public:
  SEBlock(std::int64_t channels, std::int64_t reduced);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  std::string type_name() const override { return "SEBlock"; }
  SEBlock(const SEBlock& other);
  std::unique_ptr<Module> clone() const override { return std::make_unique<SEBlock>(*this); }

  void init(clado::tensor::Rng& rng);

  std::int64_t channels() const { return channels_; }
  std::int64_t reduced() const { return fc1_->out_features(); }
  const Linear& fc1() const { return *fc1_; }
  const Linear& fc2() const { return *fc2_; }

  /// True when either inner Linear carries a QAT weight transform.
  /// forward_into reads the raw weights, so the serving plan refuses to
  /// compile such a block.
  bool has_weight_transform() const {
    return fc1_->has_weight_transform() || fc2_->has_weight_transform();
  }

  /// Scratch floats forward_into needs for batches up to `max_n` samples:
  /// pooled [max_n, C] | bottleneck [max_n, reduced] | gate [max_n, C].
  std::int64_t scratch_numel(std::int64_t max_n) const {
    return max_n * (2 * channels_ + reduced());
  }

  /// Allocation-free forward for the serving plan over `n` samples of
  /// [C, hw]; `scratch` holds scratch_numel(max_n) floats laid out with
  /// max_n-row segments so runtime n <= max_n uses segment prefixes.
  /// Bit-identical to forward().
  void forward_into(const float* in, std::int64_t n, std::int64_t max_n, std::int64_t hw,
                    float* scratch, float* out) const;

 private:
  std::int64_t channels_;
  GlobalAvgPool pool_;
  std::unique_ptr<Linear> fc1_, fc2_;
  Activation relu_{Act::kRelu};
  Activation hsig_{Act::kHardSigmoid};

  Tensor input_;  // [N, C, H, W]
  Tensor gate_;   // [N, C]
};

/// Pre-norm transformer encoder block:
///   h = x + attn(ln1(x)); y = h + fc2(gelu(fc1(ln2(h)))).
class TransformerBlock : public Module {
 public:
  TransformerBlock(std::int64_t embed_dim, std::int64_t num_heads, std::int64_t mlp_dim);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "TransformerBlock"; }
  TransformerBlock(const TransformerBlock& other);
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<TransformerBlock>(*this);
  }

  void init(clado::tensor::Rng& rng);

  /// Sub-module access for the serving plan, which compiles the block into
  /// layernorm, linear, attention and residual-add steps.
  LayerNorm& ln1() { return ln1_; }
  LayerNorm& ln2() { return ln2_; }
  MultiHeadSelfAttention& attention() { return attn_; }
  Linear& fc1() { return *fc1_; }
  Linear& fc2() { return *fc2_; }
  Activation& gelu() { return gelu_; }

 private:
  LayerNorm ln1_, ln2_;
  MultiHeadSelfAttention attn_;
  std::unique_ptr<Linear> fc1_, fc2_;  // "intermediate.dense" / "output.dense"
  Activation gelu_{Act::kGelu};
};

/// Patchify: conv(patch, stride=patch) -> tokens [N, T, D], prepend a
/// learnable class token, add learnable positional embeddings.
/// The patch conv is intentionally NOT exposed as a quantizable layer,
/// matching the paper's ViT layer table (only encoder projections are MPQ
/// decision variables).
class PatchEmbed : public Module {
 public:
  PatchEmbed(std::int64_t in_channels, std::int64_t embed_dim, std::int64_t image_size,
             std::int64_t patch_size);

  Tensor forward(const Tensor& input) override;  // [N,C,H,W] -> [N, T+1, D]
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "PatchEmbed"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<PatchEmbed>(*this); }

  void init(clado::tensor::Rng& rng);

  /// The patch conv, for the serving plan's conv step.
  Conv2d& projection() { return proj_; }
  std::int64_t embed_dim() const { return embed_dim_; }
  /// Patch tokens T (the class token makes T + 1 output rows).
  std::int64_t patch_tokens() const { return tokens_; }

  /// Token assembly: from `n` patch-conv outputs ([n, D, T] contiguous)
  /// writes [n, T+1, D] tokens into `out` — the class token first, each
  /// patch transposed to a row, the position embedding added to every row.
  /// forward() and the serving plan's tokens step both call it.
  void tokens_into(const float* fm, std::int64_t n, float* out) const;

 private:
  std::int64_t embed_dim_, grid_, tokens_;
  Conv2d proj_;
  Parameter cls_token_;  // [D]
  Parameter pos_embed_;  // [T+1, D]
  Shape conv_out_shape_;
};

/// Selects token `index` from [N, T, D] -> [N, D] (class-token readout).
class TakeToken : public Module {
 public:
  explicit TakeToken(std::int64_t index) : index_(index) {}

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::int64_t index() const { return index_; }
  std::string type_name() const override { return "TakeToken"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<TakeToken>(*this); }

 private:
  std::int64_t index_;
  Shape input_shape_;
};

}  // namespace clado::nn
