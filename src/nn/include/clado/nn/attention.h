// Multi-head self-attention for the ViT analogue.
//
// Query/key/value/output projections are separate Linear layers so they are
// individually quantizable — matching the per-layer granularity of the
// paper's ViT experiments (appendix A lists query/key/value/output.dense as
// distinct MPQ layers).
#pragma once

#include <cstdint>
#include <memory>

#include "clado/nn/layers.h"
#include "clado/nn/module.h"
#include "clado/tensor/rng.h"

namespace clado::nn {

/// Floats of `attend`'s per-head scratch for `t` tokens of `head_dim`
/// features: the gathered Q, K and V slices and the head's context.
inline std::int64_t attend_head_scratch(std::int64_t t, std::int64_t head_dim) {
  return 4 * t * head_dim;
}

/// Scaled dot-product attention of the projected q/k/v ([n, t, d] each,
/// contiguous) over `heads` heads of d / heads features: per sample and
/// head, probs = softmax(QKᵀ / sqrt(d / heads)) and ctx = probs · V.
/// Writes every head's [t, t] probabilities into `probs` ([n, heads, t, t])
/// and the concatenated heads into `ctx` ([n, t, d]); `head_scratch` holds
/// attend_head_scratch(t, d / heads) floats. The one implementation of the
/// attention core: MultiHeadSelfAttention::forward and the serving plan's
/// attention step both call it.
void attend(const float* q, const float* k, const float* v, std::int64_t n, std::int64_t t,
            std::int64_t d, std::int64_t heads, float* probs, float* head_scratch, float* ctx);

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
