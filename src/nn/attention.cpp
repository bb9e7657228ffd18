#include "clado/nn/attention.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"

namespace clado::nn {

using clado::tensor::gemm;
namespace kernels = clado::tensor::kernels;

MultiHeadSelfAttention::MultiHeadSelfAttention(std::int64_t embed_dim, std::int64_t num_heads)
    : embed_dim_(embed_dim), num_heads_(num_heads), head_dim_(embed_dim / num_heads) {
  if (embed_dim % num_heads != 0) {
    throw std::invalid_argument("MultiHeadSelfAttention: embed_dim % num_heads != 0");
  }
  query_ = std::make_unique<Linear>(embed_dim, embed_dim);
  key_ = std::make_unique<Linear>(embed_dim, embed_dim);
  value_ = std::make_unique<Linear>(embed_dim, embed_dim);
  out_proj_ = std::make_unique<Linear>(embed_dim, embed_dim);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(const MultiHeadSelfAttention& other)
    : Module(other),
      embed_dim_(other.embed_dim_),
      num_heads_(other.num_heads_),
      head_dim_(other.head_dim_),
      query_(std::make_unique<Linear>(*other.query_)),
      key_(std::make_unique<Linear>(*other.key_)),
      value_(std::make_unique<Linear>(*other.value_)),
      out_proj_(std::make_unique<Linear>(*other.out_proj_)),
      q_(other.q_),
      k_(other.k_),
      v_(other.v_),
      probs_(other.probs_),
      input_shape_(other.input_shape_) {}

void MultiHeadSelfAttention::init(clado::tensor::Rng& rng) {
  query_->init(rng);
  key_->init(rng);
  value_->init(rng);
  out_proj_->init(rng);
}

namespace {

// Extracts head slice [T, d] from a [N, T, D] array for (sample, head).
void gather_head(const float* x, std::int64_t n, std::int64_t t, std::int64_t d_model,
                 std::int64_t head, std::int64_t head_dim, float* out) {
  const float* base = x + n * t * d_model + head * head_dim;
  for (std::int64_t i = 0; i < t; ++i) {
    const float* row = base + i * d_model;
    for (std::int64_t j = 0; j < head_dim; ++j) out[i * head_dim + j] = row[j];
  }
}

// Accumulates a [T, d] head slice back into a [N, T, D] tensor.
void scatter_head(Tensor& x, std::int64_t n, std::int64_t t, std::int64_t d_model,
                  std::int64_t head, std::int64_t head_dim, const float* in) {
  float* base = x.data() + n * t * d_model + head * head_dim;
  for (std::int64_t i = 0; i < t; ++i) {
    float* row = base + i * d_model;
    for (std::int64_t j = 0; j < head_dim; ++j) row[j] += in[i * head_dim + j];
  }
}

}  // namespace

Tensor MultiHeadSelfAttention::forward(const Tensor& input) {
  if (input.dim() != 3 || input.size(2) != embed_dim_) {
    throw std::invalid_argument("MultiHeadSelfAttention: bad input shape " + input.shape_str());
  }
  input_shape_ = input.shape();
  const std::int64_t n = input.size(0);
  const std::int64_t t = input.size(1);

  q_ = query_->forward(input);
  k_ = key_->forward(input);
  v_ = value_->forward(input);

  probs_ = Tensor({n, num_heads_, t, t});
  Tensor ctx({n, t, embed_dim_});
  std::vector<float> scratch(static_cast<std::size_t>(kernels::attend_f32_scratch(t, head_dim_)));
  kernels::attend_f32(kernels::active_level(), n, t, embed_dim_, num_heads_, q_.data(), k_.data(),
                      v_.data(), scratch.data(), probs_.data(), ctx.data());
  return out_proj_->forward(ctx);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_output) {
  const std::int64_t n = input_shape_[0];
  const std::int64_t t = input_shape_[1];
  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim_));

  Tensor g_ctx = out_proj_->backward(grad_output);

  Tensor g_q({n, t, embed_dim_});
  Tensor g_k({n, t, embed_dim_});
  Tensor g_v({n, t, embed_dim_});

  std::vector<float> qh(static_cast<std::size_t>(t * head_dim_));
  std::vector<float> kh(static_cast<std::size_t>(t * head_dim_));
  std::vector<float> vh(static_cast<std::size_t>(t * head_dim_));
  std::vector<float> gch(static_cast<std::size_t>(t * head_dim_));
  std::vector<float> g_probs(static_cast<std::size_t>(t * t));
  std::vector<float> g_scores(static_cast<std::size_t>(t * t));
  std::vector<float> gqh(static_cast<std::size_t>(t * head_dim_));
  std::vector<float> gkh(static_cast<std::size_t>(t * head_dim_));
  std::vector<float> gvh(static_cast<std::size_t>(t * head_dim_));

  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t h = 0; h < num_heads_; ++h) {
      gather_head(q_.data(), s, t, embed_dim_, h, head_dim_, qh.data());
      gather_head(k_.data(), s, t, embed_dim_, h, head_dim_, kh.data());
      gather_head(v_.data(), s, t, embed_dim_, h, head_dim_, vh.data());
      gather_head(g_ctx.data(), s, t, embed_dim_, h, head_dim_, gch.data());
      const float* probs = probs_.data() + (s * num_heads_ + h) * t * t;

      // g_probs [t, t] = g_ctx_head [t, d] x V^T [d, t]
      gemm(false, true, t, t, head_dim_, 1.0F, gch.data(), vh.data(), 0.0F, g_probs.data());
      // g_V [t, d] = probs^T [t, t] x g_ctx_head [t, d]
      gemm(true, false, t, head_dim_, t, 1.0F, probs, gch.data(), 0.0F, gvh.data());
      // softmax backward per row: gs = p * (gp - sum(gp * p))
      for (std::int64_t i = 0; i < t; ++i) {
        const float* prow = probs + i * t;
        const float* gprow = g_probs.data() + i * t;
        float* gsrow = g_scores.data() + i * t;
        double dotv = 0.0;
        for (std::int64_t j = 0; j < t; ++j) dotv += static_cast<double>(gprow[j]) * prow[j];
        for (std::int64_t j = 0; j < t; ++j) {
          gsrow[j] = prow[j] * (gprow[j] - static_cast<float>(dotv));
        }
      }
      // g_Q [t, d] = scale * g_scores [t, t] x K [t, d]
      gemm(false, false, t, head_dim_, t, scale, g_scores.data(), kh.data(), 0.0F, gqh.data());
      // g_K [t, d] = scale * g_scores^T [t, t] x Q [t, d]
      gemm(true, false, t, head_dim_, t, scale, g_scores.data(), qh.data(), 0.0F, gkh.data());

      scatter_head(g_q, s, t, embed_dim_, h, head_dim_, gqh.data());
      scatter_head(g_k, s, t, embed_dim_, h, head_dim_, gkh.data());
      scatter_head(g_v, s, t, embed_dim_, h, head_dim_, gvh.data());
    }
  }

  Tensor grad_input = query_->backward(g_q);
  grad_input += key_->backward(g_k);
  grad_input += value_->backward(g_v);
  return grad_input;
}

void MultiHeadSelfAttention::collect_params(const std::string& prefix,
                                            std::vector<ParamRef>& out) {
  query_->collect_params(join_name(prefix, "query"), out);
  key_->collect_params(join_name(prefix, "key"), out);
  value_->collect_params(join_name(prefix, "value"), out);
  out_proj_->collect_params(join_name(prefix, "output.dense"), out);
}

void MultiHeadSelfAttention::collect_quant_layers(const std::string& prefix,
                                                  std::vector<QuantLayerRef>& out) {
  query_->collect_quant_layers(join_name(prefix, "query"), out);
  key_->collect_quant_layers(join_name(prefix, "key"), out);
  value_->collect_quant_layers(join_name(prefix, "value"), out);
  out_proj_->collect_quant_layers(join_name(prefix, "output.dense"), out);
}

}  // namespace clado::nn
