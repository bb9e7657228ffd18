// Multi-head self-attention for the ViT analogue.
//
// Query/key/value/output projections are separate Linear layers so they are
// individually quantizable — matching the per-layer granularity of the
// paper's ViT experiments (appendix A lists query/key/value/output.dense as
// distinct MPQ layers). The attention core between the projections is
// tensor::kernels::attend_f32, which the serving plan's attention step
// calls too.
#pragma once

#include <cstdint>
#include <memory>

#include "clado/nn/layers.h"
#include "clado/nn/module.h"
#include "clado/tensor/rng.h"

namespace clado::nn {

class MultiHeadSelfAttention : public Module {
 public:
  /// embed_dim must be divisible by num_heads.
  MultiHeadSelfAttention(std::int64_t embed_dim, std::int64_t num_heads);

  /// Input/output shape: [N, T, D].
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  void collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) override;
  std::string type_name() const override { return "MultiHeadSelfAttention"; }
  MultiHeadSelfAttention(const MultiHeadSelfAttention& other);
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<MultiHeadSelfAttention>(*this);
  }

  void init(clado::tensor::Rng& rng);

  std::int64_t embed_dim() const { return embed_dim_; }
  std::int64_t num_heads() const { return num_heads_; }
  /// Projection access for the serving plan, which compiles each one into
  /// its own linear step.
  Linear& query() { return *query_; }
  Linear& key() { return *key_; }
  Linear& value() { return *value_; }
  Linear& out_proj() { return *out_proj_; }

 private:
  std::int64_t embed_dim_, num_heads_, head_dim_;
  std::unique_ptr<Linear> query_, key_, value_, out_proj_;

  // forward stash
  Tensor q_, k_, v_;   // [N, T, D] (post projection)
  Tensor probs_;       // [N, heads, T, T] softmax attention weights
  Shape input_shape_;
};

}  // namespace clado::nn
