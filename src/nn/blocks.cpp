#include "clado/nn/blocks.h"

#include <cmath>
#include <stdexcept>

#include "clado/tensor/rng.h"

namespace clado::nn {

// ---------------------------------------------------------------------------
// ResidualBlock
// ---------------------------------------------------------------------------

ResidualBlock::ResidualBlock(std::unique_ptr<Sequential> main,
                             std::unique_ptr<Sequential> shortcut, bool final_relu)
    : main_(std::move(main)), shortcut_(std::move(shortcut)), final_relu_(final_relu) {
  if (!main_) throw std::invalid_argument("ResidualBlock: main path required");
}

ResidualBlock::ResidualBlock(const ResidualBlock& other)
    : Module(other),
      main_(std::make_unique<Sequential>(*other.main_)),
      shortcut_(other.shortcut_ ? std::make_unique<Sequential>(*other.shortcut_) : nullptr),
      final_relu_(other.final_relu_),
      pre_act_(other.pre_act_) {}

Tensor ResidualBlock::forward(const Tensor& input) {
  Tensor y = main_->forward(input);
  if (shortcut_) {
    y += shortcut_->forward(input);
  } else {
    y += input;
  }
  pre_act_ = y;
  if (final_relu_) {
    float* d = y.data();
    for (std::int64_t i = 0; i < y.numel(); ++i) d[i] = d[i] > 0.0F ? d[i] : 0.0F;
  }
  return y;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  if (final_relu_) {
    float* d = g.data();
    const float* pre = pre_act_.data();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      if (pre[i] <= 0.0F) d[i] = 0.0F;
    }
  }
  Tensor grad_input = main_->backward(g);
  if (shortcut_) {
    grad_input += shortcut_->backward(g);
  } else {
    grad_input += g;
  }
  return grad_input;
}

void ResidualBlock::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  main_->collect_params(prefix, out);
  if (shortcut_) shortcut_->collect_params(join_name(prefix, "downsample"), out);
}

void ResidualBlock::collect_quant_layers(const std::string& prefix,
                                         std::vector<QuantLayerRef>& out) {
  main_->collect_quant_layers(prefix, out);
  if (shortcut_) shortcut_->collect_quant_layers(join_name(prefix, "downsample"), out);
}

void ResidualBlock::set_training(bool training) {
  Module::set_training(training);
  main_->set_training(training);
  if (shortcut_) shortcut_->set_training(training);
}

// ---------------------------------------------------------------------------
// SEBlock
// ---------------------------------------------------------------------------

SEBlock::SEBlock(std::int64_t channels, std::int64_t reduced) : channels_(channels) {
  fc1_ = std::make_unique<Linear>(channels, reduced);
  fc2_ = std::make_unique<Linear>(reduced, channels);
}

SEBlock::SEBlock(const SEBlock& other)
    : Module(other),
      channels_(other.channels_),
      pool_(other.pool_),
      fc1_(std::make_unique<Linear>(*other.fc1_)),
      fc2_(std::make_unique<Linear>(*other.fc2_)),
      relu_(other.relu_),
      hsig_(other.hsig_),
      input_(other.input_),
      gate_(other.gate_) {}

void SEBlock::init(clado::tensor::Rng& rng) {
  fc1_->init(rng);
  fc2_->init(rng);
}

Tensor SEBlock::forward(const Tensor& input) {
  input_ = input;
  Tensor s = pool_.forward(input);                 // [N, C]
  Tensor z = relu_.forward(fc1_->forward(s));      // [N, r]
  Tensor gate = hsig_.forward(fc2_->forward(z));   // [N, C]

  const std::int64_t n = input.size(0);
  const std::int64_t hw = input.size(2) * input.size(3);
  Tensor out(input.shape());
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float g = gate.data()[b * channels_ + c];
      const float* x = input.data() + (b * channels_ + c) * hw;
      float* o = out.data() + (b * channels_ + c) * hw;
      for (std::int64_t p = 0; p < hw; ++p) o[p] = x[p] * g;
    }
  }
  gate_ = std::move(gate);
  return out;
}

void SEBlock::forward_into(const float* in, std::int64_t n, std::int64_t max_n,
                           std::int64_t hw, float* scratch, float* out) const {
  const std::int64_t r = reduced();
  float* s = scratch;                        // [n, C] prefix of a max_n segment
  float* z = scratch + max_n * channels_;    // [n, r]
  float* gate = z + max_n * r;               // [n, C]

  // Same op sequence as forward(): GAP -> fc1 -> relu -> fc2 -> hsig -> scale.
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* plane = in + (b * channels_ + c) * hw;
      double acc = 0.0;
      for (std::int64_t p = 0; p < hw; ++p) acc += plane[p];
      s[b * channels_ + c] = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  fc1_->forward_into(s, n, z);
  for (std::int64_t i = 0; i < n * r; ++i) z[i] = act_forward(Act::kRelu, z[i]);
  fc2_->forward_into(z, n, gate);
  for (std::int64_t i = 0; i < n * channels_; ++i) {
    gate[i] = act_forward(Act::kHardSigmoid, gate[i]);
  }
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float g = gate[b * channels_ + c];
      const float* x = in + (b * channels_ + c) * hw;
      float* o = out + (b * channels_ + c) * hw;
      for (std::int64_t p = 0; p < hw; ++p) o[p] = x[p] * g;
    }
  }
}

Tensor SEBlock::backward(const Tensor& grad_output) {
  const std::int64_t n = input_.size(0);
  const std::int64_t hw = input_.size(2) * input_.size(3);

  // Path 1: direct product rule wrt x; Path 2: wrt the gate.
  Tensor grad_gate({n, channels_});
  Tensor grad_input(input_.shape());
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float g = gate_.data()[b * channels_ + c];
      const float* go = grad_output.data() + (b * channels_ + c) * hw;
      const float* x = input_.data() + (b * channels_ + c) * hw;
      float* gi = grad_input.data() + (b * channels_ + c) * hw;
      double acc = 0.0;
      for (std::int64_t p = 0; p < hw; ++p) {
        gi[p] = go[p] * g;
        acc += static_cast<double>(go[p]) * x[p];
      }
      grad_gate.data()[b * channels_ + c] = static_cast<float>(acc);
    }
  }

  Tensor gz = fc2_->backward(hsig_.backward(grad_gate));
  Tensor gs = fc1_->backward(relu_.backward(gz));
  grad_input += pool_.backward(gs);
  return grad_input;
}

void SEBlock::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  fc1_->collect_params(join_name(prefix, "fc1"), out);
  fc2_->collect_params(join_name(prefix, "fc2"), out);
}

void SEBlock::collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) {
  fc1_->collect_quant_layers(join_name(prefix, "fc1"), out);
  fc2_->collect_quant_layers(join_name(prefix, "fc2"), out);
}

// ---------------------------------------------------------------------------
// TransformerBlock
// ---------------------------------------------------------------------------

TransformerBlock::TransformerBlock(std::int64_t embed_dim, std::int64_t num_heads,
                                   std::int64_t mlp_dim)
    : ln1_(embed_dim), ln2_(embed_dim), attn_(embed_dim, num_heads) {
  fc1_ = std::make_unique<Linear>(embed_dim, mlp_dim);
  fc2_ = std::make_unique<Linear>(mlp_dim, embed_dim);
}

TransformerBlock::TransformerBlock(const TransformerBlock& other)
    : Module(other),
      ln1_(other.ln1_),
      ln2_(other.ln2_),
      attn_(other.attn_),
      fc1_(std::make_unique<Linear>(*other.fc1_)),
      fc2_(std::make_unique<Linear>(*other.fc2_)),
      gelu_(other.gelu_) {}

void TransformerBlock::init(clado::tensor::Rng& rng) {
  attn_.init(rng);
  fc1_->init(rng);
  fc2_->init(rng);
}

Tensor TransformerBlock::forward(const Tensor& input) {
  Tensor h = input;
  h += attn_.forward(ln1_.forward(input));
  Tensor y = h;
  y += fc2_->forward(gelu_.forward(fc1_->forward(ln2_.forward(h))));
  return y;
}

Tensor TransformerBlock::backward(const Tensor& grad_output) {
  // y = h + mlp(ln2(h))
  Tensor g_h = grad_output;
  g_h += ln2_.backward(fc1_->backward(gelu_.backward(fc2_->backward(grad_output))));
  // h = x + attn(ln1(x))
  Tensor g_x = g_h;
  g_x += ln1_.backward(attn_.backward(g_h));
  return g_x;
}

void TransformerBlock::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  ln1_.collect_params(join_name(prefix, "layernorm_before"), out);
  attn_.collect_params(join_name(prefix, "attention.attention"), out);
  ln2_.collect_params(join_name(prefix, "layernorm_after"), out);
  fc1_->collect_params(join_name(prefix, "intermediate.dense"), out);
  fc2_->collect_params(join_name(prefix, "output.dense"), out);
}

void TransformerBlock::collect_quant_layers(const std::string& prefix,
                                            std::vector<QuantLayerRef>& out) {
  attn_.collect_quant_layers(join_name(prefix, "attention.attention"), out);
  fc1_->collect_quant_layers(join_name(prefix, "intermediate.dense"), out);
  fc2_->collect_quant_layers(join_name(prefix, "output.dense"), out);
}

void TransformerBlock::set_training(bool training) {
  Module::set_training(training);
  ln1_.set_training(training);
  ln2_.set_training(training);
  attn_.set_training(training);
  fc1_->set_training(training);
  fc2_->set_training(training);
  gelu_.set_training(training);
}

// ---------------------------------------------------------------------------
// PatchEmbed
// ---------------------------------------------------------------------------

PatchEmbed::PatchEmbed(std::int64_t in_channels, std::int64_t embed_dim,
                       std::int64_t image_size, std::int64_t patch_size)
    : embed_dim_(embed_dim),
      grid_(image_size / patch_size),
      tokens_(grid_ * grid_),
      proj_(in_channels, embed_dim, patch_size, patch_size, 0),
      cls_token_(Tensor({embed_dim})),
      pos_embed_(Tensor({tokens_ + 1, embed_dim})) {
  if (image_size % patch_size != 0) {
    throw std::invalid_argument("PatchEmbed: image_size must be a multiple of patch_size");
  }
}

void PatchEmbed::init(clado::tensor::Rng& rng) {
  proj_.init(rng);
  for (auto& v : cls_token_.value.flat()) v = static_cast<float>(rng.normal()) * 0.02F;
  for (auto& v : pos_embed_.value.flat()) v = static_cast<float>(rng.normal()) * 0.02F;
}

Tensor PatchEmbed::forward(const Tensor& input) {
  Tensor fm = proj_.forward(input);  // [N, D, g, g]
  conv_out_shape_ = fm.shape();
  const std::int64_t n = fm.size(0);
  Tensor out({n, tokens_ + 1, embed_dim_});
  tokens_into(fm.data(), n, out.data());
  return out;
}

void PatchEmbed::tokens_into(const float* fm, std::int64_t n, float* out) const {
  const float* pos = pos_embed_.value.data();
  for (std::int64_t s = 0; s < n; ++s) {
    float* obase = out + s * (tokens_ + 1) * embed_dim_;
    // class token at position 0
    for (std::int64_t d = 0; d < embed_dim_; ++d) obase[d] = cls_token_.value[d] + pos[d];
    // patches: transpose [D, T] -> [T, D]
    const float* fbase = fm + s * embed_dim_ * tokens_;
    for (std::int64_t p = 0; p < tokens_; ++p) {
      float* orow = obase + (p + 1) * embed_dim_;
      const float* prow = pos + (p + 1) * embed_dim_;
      for (std::int64_t d = 0; d < embed_dim_; ++d) {
        orow[d] = fbase[d * tokens_ + p] + prow[d];
      }
    }
  }
}

Tensor PatchEmbed::backward(const Tensor& grad_output) {
  const std::int64_t n = grad_output.size(0);
  Tensor g_fm(conv_out_shape_);
  for (std::int64_t s = 0; s < n; ++s) {
    const float* gbase = grad_output.data() + s * (tokens_ + 1) * embed_dim_;
    for (std::int64_t d = 0; d < embed_dim_; ++d) {
      cls_token_.grad[d] += gbase[d];
      pos_embed_.grad.data()[d] += gbase[d];
    }
    float* fbase = g_fm.data() + s * embed_dim_ * tokens_;
    for (std::int64_t p = 0; p < tokens_; ++p) {
      const float* grow = gbase + (p + 1) * embed_dim_;
      float* prow = pos_embed_.grad.data() + (p + 1) * embed_dim_;
      for (std::int64_t d = 0; d < embed_dim_; ++d) {
        prow[d] += grow[d];
        fbase[d * tokens_ + p] = grow[d];
      }
    }
  }
  return proj_.backward(g_fm);
}

void PatchEmbed::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  proj_.collect_params(join_name(prefix, "projection"), out);
  out.push_back({join_name(prefix, "cls_token"), &cls_token_});
  out.push_back({join_name(prefix, "position_embeddings"), &pos_embed_});
}

void PatchEmbed::set_training(bool training) {
  Module::set_training(training);
  proj_.set_training(training);
}

// ---------------------------------------------------------------------------
// TakeToken
// ---------------------------------------------------------------------------

Tensor TakeToken::forward(const Tensor& input) {
  if (input.dim() != 3) throw std::invalid_argument("TakeToken: expects [N, T, D]");
  input_shape_ = input.shape();
  const std::int64_t n = input.size(0);
  const std::int64_t t = input.size(1);
  const std::int64_t d = input.size(2);
  Tensor out({n, d});
  for (std::int64_t s = 0; s < n; ++s) {
    const float* row = input.data() + (s * t + index_) * d;
    float* o = out.data() + s * d;
    for (std::int64_t j = 0; j < d; ++j) o[j] = row[j];
  }
  return out;
}

Tensor TakeToken::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const std::int64_t n = input_shape_[0];
  const std::int64_t t = input_shape_[1];
  const std::int64_t d = input_shape_[2];
  for (std::int64_t s = 0; s < n; ++s) {
    const float* g = grad_output.data() + s * d;
    float* row = grad_input.data() + (s * t + index_) * d;
    for (std::int64_t j = 0; j < d; ++j) row[j] = g[j];
  }
  return grad_input;
}

}  // namespace clado::nn
