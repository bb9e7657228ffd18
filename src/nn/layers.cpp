#include "clado/nn/layers.h"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"

namespace clado::nn {

using clado::tensor::col2im;
using clado::tensor::conv_out_size;
using clado::tensor::gemm;
using clado::tensor::im2col;
using clado::tensor::Rng;
namespace kernels = clado::tensor::kernels;

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

namespace {

// Eager-mode conv at the active kernel level with per-call scratch. The
// entry overwrites its scratch before reading it, so none is zero-filled.
void conv_with_scratch(const kernels::ConvGeometry& geom, std::int64_t n, const float* in,
                       const float* weight, const float* bias, float* out) {
  const kernels::Level level = kernels::active_level();
  const kernels::ConvWorkspace ws = kernels::conv2d_f32_workspace(level, geom);
  const auto floats = std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(ws.floats));
  const auto indices =
      std::make_unique_for_overwrite<std::int32_t[]>(static_cast<std::size_t>(ws.indices));
  kernels::conv2d_f32(level, geom, n, in, weight, bias, floats.get(), indices.get(), out);
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, std::int64_t groups, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      groups_(groups),
      has_bias_(bias),
      weight_(Tensor({out_channels, in_channels / groups, kernel, kernel})),
      bias_(Tensor({bias ? out_channels : 0})) {
  if (in_channels % groups != 0 || out_channels % groups != 0) {
    throw std::invalid_argument("Conv2d: channels must be divisible by groups");
  }
}

void Conv2d::init(Rng& rng) {
  const double fan_in =
      static_cast<double>(in_channels_ / groups_) * kernel_ * kernel_;
  const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
  for (auto& v : weight_.value.flat()) v = static_cast<float>(rng.normal()) * stddev;
  if (has_bias_) bias_.value.fill(0.0F);
}

Tensor Conv2d::forward(const Tensor& input) {
  if (input.dim() != 4 || input.size(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input shape " + input.shape_str());
  }
  input_ = input;
  effective_weight_ = weight_transform_ ? weight_transform_(weight_.value) : weight_.value;

  const std::int64_t n = input.size(0);
  const std::int64_t h = input.size(2);
  const std::int64_t w = input.size(3);
  Tensor output({n, out_channels_, conv_out_size(h, kernel_, stride_, pad_),
                 conv_out_size(w, kernel_, stride_, pad_)});
  conv_with_scratch(geometry(h, w), n, input.data(), effective_weight_.data(), bias_data(),
                    output.data());
  return output;
}

kernels::ConvGeometry Conv2d::geometry(std::int64_t h, std::int64_t w) const {
  return {in_channels_, h, w, out_channels_, kernel_, stride_, pad_, groups_};
}

void Conv2d::forward_into(const float* in, std::int64_t n, std::int64_t h, std::int64_t w,
                          float* floats, std::int32_t* indices, float* out) const {
  kernels::conv2d_f32(kernels::active_level(), geometry(h, w), n, in, weight_.value.data(),
                      bias_data(), floats, indices, out);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const std::int64_t n = input_.size(0);
  const std::int64_t h = input_.size(2);
  const std::int64_t w = input_.size(3);
  const std::int64_t oh = conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t ow = conv_out_size(w, kernel_, stride_, pad_);
  const std::int64_t cg = in_channels_ / groups_;
  const std::int64_t og = out_channels_ / groups_;
  const std::int64_t patch = cg * kernel_ * kernel_;
  const std::int64_t positions = oh * ow;

  if (grad_output.shape() != Shape{n, out_channels_, oh, ow}) {
    throw std::invalid_argument("Conv2d::backward: bad grad shape " + grad_output.shape_str());
  }

  Tensor grad_input(input_.shape());
  std::vector<float> cols(static_cast<std::size_t>(positions * patch));
  std::vector<float> grad_cols(static_cast<std::size_t>(positions * patch));

  for (std::int64_t s = 0; s < n; ++s) {
    const float* img = input_.data() + s * in_channels_ * h * w;
    const float* gout = grad_output.data() + s * out_channels_ * positions;
    float* gin = grad_input.data() + s * in_channels_ * h * w;
    for (std::int64_t g = 0; g < groups_; ++g) {
      im2col(img + g * cg * h * w, cg, h, w, kernel_, kernel_, stride_, pad_, cols.data());
      const float* gout_g = gout + g * og * positions;
      // grad_W_g [og, patch] += gout_g [og, positions] x cols [positions, patch]
      gemm(false, false, og, patch, positions, 1.0F, gout_g, cols.data(), 1.0F,
           weight_.grad.data() + g * og * patch);
      // grad_cols [positions, patch] = gout_g^T [positions, og] x W_g [og, patch]
      gemm(true, false, positions, patch, og, 1.0F, gout_g,
           effective_weight_.data() + g * og * patch, 0.0F, grad_cols.data());
      col2im(grad_cols.data(), cg, h, w, kernel_, kernel_, stride_, pad_, gin + g * cg * h * w);
    }
    if (has_bias_) {
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        const float* row = gout + c * positions;
        double acc = 0.0;
        for (std::int64_t p = 0; p < positions; ++p) acc += row[p];
        bias_.grad[c] += static_cast<float>(acc);
      }
    }
  }
  return grad_input;
}

void Conv2d::fold_scale_shift(std::span<const float> scale, std::span<const float> shift) {
  if (static_cast<std::int64_t>(scale.size()) != out_channels_ ||
      static_cast<std::int64_t>(shift.size()) != out_channels_) {
    throw std::invalid_argument("Conv2d::fold_scale_shift: channel count mismatch");
  }
  const std::int64_t per = weight_.value.numel() / out_channels_;
  for (std::int64_t c = 0; c < out_channels_; ++c) {
    float* wc = weight_.value.data() + c * per;
    for (std::int64_t i = 0; i < per; ++i) wc[i] *= scale[static_cast<std::size_t>(c)];
  }
  if (!has_bias_) {
    has_bias_ = true;
    bias_ = Parameter(Tensor({out_channels_}));
  }
  for (std::int64_t c = 0; c < out_channels_; ++c) {
    bias_.value[c] = bias_.value[c] * scale[static_cast<std::size_t>(c)] +
                     shift[static_cast<std::size_t>(c)];
  }
}

Tensor Conv2d::linear_map_on_last_input(const Tensor& weight_like) {
  if (input_.empty()) throw std::logic_error("Conv2d: no stashed input (run forward first)");
  if (weight_like.shape() != weight_.value.shape()) {
    throw std::invalid_argument("Conv2d::linear_map_on_last_input: weight shape mismatch");
  }
  const std::int64_t n = input_.size(0);
  const std::int64_t h = input_.size(2);
  const std::int64_t w = input_.size(3);
  Tensor output({n, out_channels_, conv_out_size(h, kernel_, stride_, pad_),
                 conv_out_size(w, kernel_, stride_, pad_)});
  conv_with_scratch(geometry(h, w), n, input_.data(), weight_like.data(), nullptr,
                    output.data());
  return output;
}

void Conv2d::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  out.push_back({join_name(prefix, "weight"), &weight_});
  if (has_bias_) out.push_back({join_name(prefix, "bias"), &bias_});
}

void Conv2d::collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) {
  out.push_back({prefix, this, -1});
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_(Tensor({out_features, in_features})),
      bias_(Tensor({bias ? out_features : 0})) {}

void Linear::init(Rng& rng) {
  const float stddev = static_cast<float>(std::sqrt(2.0 / static_cast<double>(in_features_)));
  for (auto& v : weight_.value.flat()) v = static_cast<float>(rng.normal()) * stddev;
  if (has_bias_) bias_.value.fill(0.0F);
}

Tensor Linear::forward(const Tensor& input) {
  if (input.dim() < 1 || input.size(-1) != in_features_) {
    throw std::invalid_argument("Linear: bad input shape " + input.shape_str());
  }
  const std::int64_t rows = input.numel() / in_features_;
  input_shape_ = input.shape();
  input2d_ = input.reshape({rows, in_features_});
  effective_weight_ = weight_transform_ ? weight_transform_(weight_.value) : weight_.value;

  Tensor out({rows, out_features_});
  // out = x [rows, in] x W^T [in, out]
  gemm(false, true, rows, out_features_, in_features_, 1.0F, input2d_.data(),
       effective_weight_.data(), 0.0F, out.data());
  if (has_bias_) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float* row = out.data() + r * out_features_;
      for (std::int64_t c = 0; c < out_features_; ++c) row[c] += bias_.value[c];
    }
  }
  Shape out_shape = input.shape();
  out_shape.back() = out_features_;
  out.reshape_inplace(std::move(out_shape));
  return out;
}

void Linear::forward_into(const float* in, std::int64_t rows, float* out) const {
  gemm(false, true, rows, out_features_, in_features_, 1.0F, in, weight_.value.data(), 0.0F,
       out);
  if (has_bias_) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float* row = out + r * out_features_;
      for (std::int64_t c = 0; c < out_features_; ++c) row[c] += bias_.value[c];
    }
  }
}

Tensor Linear::backward(const Tensor& grad_output) {
  const std::int64_t rows = input2d_.size(0);
  Tensor g = grad_output.reshape({rows, out_features_});

  // grad_W [out, in] += g^T [out, rows] x x [rows, in]
  gemm(true, false, out_features_, in_features_, rows, 1.0F, g.data(), input2d_.data(), 1.0F,
       weight_.grad.data());
  if (has_bias_) {
    for (std::int64_t c = 0; c < out_features_; ++c) {
      double acc = 0.0;
      for (std::int64_t r = 0; r < rows; ++r) acc += g.data()[r * out_features_ + c];
      bias_.grad[c] += static_cast<float>(acc);
    }
  }
  // grad_x [rows, in] = g [rows, out] x W [out, in]
  Tensor grad_input({rows, in_features_});
  gemm(false, false, rows, in_features_, out_features_, 1.0F, g.data(),
       effective_weight_.data(), 0.0F, grad_input.data());
  grad_input.reshape_inplace(input_shape_);
  return grad_input;
}

Tensor Linear::linear_map_on_last_input(const Tensor& weight_like) {
  if (input2d_.empty()) throw std::logic_error("Linear: no stashed input (run forward first)");
  if (weight_like.shape() != weight_.value.shape()) {
    throw std::invalid_argument("Linear::linear_map_on_last_input: weight shape mismatch");
  }
  const std::int64_t rows = input2d_.size(0);
  Tensor out({rows, out_features_});
  gemm(false, true, rows, out_features_, in_features_, 1.0F, input2d_.data(),
       weight_like.data(), 0.0F, out.data());
  return out;
}

void Linear::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  out.push_back({join_name(prefix, "weight"), &weight_});
  if (has_bias_) out.push_back({join_name(prefix, "bias"), &bias_});
}

void Linear::collect_quant_layers(const std::string& prefix, std::vector<QuantLayerRef>& out) {
  out.push_back({prefix, this, -1});
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::ones({channels})),
      beta_(Tensor({channels})),
      running_mean_(Tensor({channels}), /*trainable=*/false),
      running_var_(Tensor::ones({channels}), /*trainable=*/false) {}

Tensor BatchNorm2d::forward(const Tensor& input) {
  if (input.dim() != 4 || input.size(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input shape " + input.shape_str());
  }
  const std::int64_t n = input.size(0);
  const std::int64_t h = input.size(2);
  const std::int64_t w = input.size(3);
  const std::int64_t hw = h * w;
  n_per_channel_ = n * hw;
  used_batch_stats_ = training_;

  Tensor mean({channels_});
  Tensor var({channels_});
  if (training_) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* plane = input.data() + (s * channels_ + c) * hw;
        for (std::int64_t p = 0; p < hw; ++p) acc += plane[p];
      }
      const double mu = acc / static_cast<double>(n_per_channel_);
      double vacc = 0.0;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* plane = input.data() + (s * channels_ + c) * hw;
        for (std::int64_t p = 0; p < hw; ++p) {
          const double d = plane[p] - mu;
          vacc += d * d;
        }
      }
      mean[c] = static_cast<float>(mu);
      var[c] = static_cast<float>(vacc / static_cast<double>(n_per_channel_));
      running_mean_.value[c] =
          (1.0F - momentum_) * running_mean_.value[c] + momentum_ * mean[c];
      running_var_.value[c] = (1.0F - momentum_) * running_var_.value[c] + momentum_ * var[c];
    }
  } else {
    mean = running_mean_.value;
    var = running_var_.value;
  }

  invstd_ = Tensor({channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    invstd_[c] = 1.0F / std::sqrt(var[c] + eps_);
  }

  xhat_ = Tensor(input.shape());
  Tensor out(input.shape());
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* plane = input.data() + (s * channels_ + c) * hw;
      float* xh = xhat_.data() + (s * channels_ + c) * hw;
      float* o = out.data() + (s * channels_ + c) * hw;
      const float mu = mean[c];
      const float is = invstd_[c];
      const float g = gamma_.value[c];
      const float b = beta_.value[c];
      for (std::int64_t p = 0; p < hw; ++p) {
        xh[p] = (plane[p] - mu) * is;
        o[p] = g * xh[p] + b;
      }
    }
  }
  return out;
}

void BatchNorm2d::forward_into(const float* in, std::int64_t n, std::int64_t hw,
                               float* out) const {
  // forward()'s eval branch, rounding point for rounding point; the
  // normalized value stays in a register instead of the xhat_ stash.
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* plane = in + (s * channels_ + c) * hw;
      float* o = out + (s * channels_ + c) * hw;
      const float mu = running_mean_.value[c];
      const float is = 1.0F / std::sqrt(running_var_.value[c] + eps_);
      const float g = gamma_.value[c];
      const float b = beta_.value[c];
      for (std::int64_t p = 0; p < hw; ++p) {
        const float xh = (plane[p] - mu) * is;
        o[p] = g * xh + b;
      }
    }
  }
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  const std::int64_t n = grad_output.size(0);
  const std::int64_t hw = grad_output.size(2) * grad_output.size(3);
  Tensor grad_input(grad_output.shape());

  for (std::int64_t c = 0; c < channels_; ++c) {
    // Per-channel reductions sum_g and sum_g_xhat feed both the parameter
    // gradients and (in training mode) the input gradient correction terms.
    double sum_g = 0.0;
    double sum_g_xhat = 0.0;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* g = grad_output.data() + (s * channels_ + c) * hw;
      const float* xh = xhat_.data() + (s * channels_ + c) * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        sum_g += g[p];
        sum_g_xhat += static_cast<double>(g[p]) * xh[p];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_g_xhat);
    beta_.grad[c] += static_cast<float>(sum_g);

    const float gam = gamma_.value[c];
    const float is = invstd_[c];
    if (used_batch_stats_) {
      const double inv_m = 1.0 / static_cast<double>(n_per_channel_);
      for (std::int64_t s = 0; s < n; ++s) {
        const float* g = grad_output.data() + (s * channels_ + c) * hw;
        const float* xh = xhat_.data() + (s * channels_ + c) * hw;
        float* gi = grad_input.data() + (s * channels_ + c) * hw;
        for (std::int64_t p = 0; p < hw; ++p) {
          const double t = static_cast<double>(g[p]) - inv_m * sum_g -
                           static_cast<double>(xh[p]) * inv_m * sum_g_xhat;
          gi[p] = static_cast<float>(gam * is * t);
        }
      }
    } else {
      const float scale = gam * is;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* g = grad_output.data() + (s * channels_ + c) * hw;
        float* gi = grad_input.data() + (s * channels_ + c) * hw;
        for (std::int64_t p = 0; p < hw; ++p) gi[p] = scale * g[p];
      }
    }
  }
  return grad_input;
}

void BatchNorm2d::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  out.push_back({join_name(prefix, "weight"), &gamma_});
  out.push_back({join_name(prefix, "bias"), &beta_});
  out.push_back({join_name(prefix, "running_mean"), &running_mean_});
  out.push_back({join_name(prefix, "running_var"), &running_var_});
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

LayerNorm::LayerNorm(std::int64_t features, float eps)
    : features_(features),
      eps_(eps),
      gamma_(Tensor::ones({features})),
      beta_(Tensor({features})) {}

Tensor LayerNorm::forward(const Tensor& input) {
  if (input.size(-1) != features_) {
    throw std::invalid_argument("LayerNorm: bad input shape " + input.shape_str());
  }
  const std::int64_t rows = input.numel() / features_;
  xhat_ = Tensor(input.shape());
  invstd_ = Tensor({rows});
  Tensor out(input.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = input.data() + r * features_;
    float* xh = xhat_.data() + r * features_;
    float* o = out.data() + r * features_;
    double mu = 0.0;
    for (std::int64_t j = 0; j < features_; ++j) mu += x[j];
    mu /= static_cast<double>(features_);
    double var = 0.0;
    for (std::int64_t j = 0; j < features_; ++j) {
      const double d = x[j] - mu;
      var += d * d;
    }
    var /= static_cast<double>(features_);
    const float is = static_cast<float>(1.0 / std::sqrt(var + eps_));
    invstd_[r] = is;
    for (std::int64_t j = 0; j < features_; ++j) {
      xh[j] = (x[j] - static_cast<float>(mu)) * is;
      o[j] = gamma_.value[j] * xh[j] + beta_.value[j];
    }
  }
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_output) {
  const std::int64_t rows = grad_output.numel() / features_;
  Tensor grad_input(grad_output.shape());
  const double inv_d = 1.0 / static_cast<double>(features_);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* g = grad_output.data() + r * features_;
    const float* xh = xhat_.data() + r * features_;
    float* gi = grad_input.data() + r * features_;
    double sum_gg = 0.0;      // sum_j g_j * gamma_j
    double sum_gg_xhat = 0.0; // sum_j g_j * gamma_j * xhat_j
    for (std::int64_t j = 0; j < features_; ++j) {
      const double gg = static_cast<double>(g[j]) * gamma_.value[j];
      sum_gg += gg;
      sum_gg_xhat += gg * xh[j];
      gamma_.grad[j] += g[j] * xh[j];
      beta_.grad[j] += g[j];
    }
    const float is = invstd_[r];
    for (std::int64_t j = 0; j < features_; ++j) {
      const double gg = static_cast<double>(g[j]) * gamma_.value[j];
      gi[j] = static_cast<float>(is * (gg - inv_d * sum_gg - xh[j] * inv_d * sum_gg_xhat));
    }
  }
  return grad_input;
}

void LayerNorm::forward_into(const float* in, std::int64_t rows, float* out) const {
  // Mirrors forward()'s accumulation order and rounding points exactly; the
  // normalized value just stays in a register instead of the xhat_ stash.
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = in + r * features_;
    float* o = out + r * features_;
    double mu = 0.0;
    for (std::int64_t j = 0; j < features_; ++j) mu += x[j];
    mu /= static_cast<double>(features_);
    double var = 0.0;
    for (std::int64_t j = 0; j < features_; ++j) {
      const double d = x[j] - mu;
      var += d * d;
    }
    var /= static_cast<double>(features_);
    const float is = static_cast<float>(1.0 / std::sqrt(var + eps_));
    for (std::int64_t j = 0; j < features_; ++j) {
      const float xh = (x[j] - static_cast<float>(mu)) * is;
      o[j] = gamma_.value[j] * xh + beta_.value[j];
    }
  }
}

void LayerNorm::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  out.push_back({join_name(prefix, "weight"), &gamma_});
  out.push_back({join_name(prefix, "bias"), &beta_});
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

const char* act_name(Act a) {
  switch (a) {
    case Act::kRelu: return "ReLU";
    case Act::kRelu6: return "ReLU6";
    case Act::kHardSwish: return "HardSwish";
    case Act::kHardSigmoid: return "HardSigmoid";
    case Act::kGelu: return "GELU";
    case Act::kSilu: return "SiLU";
  }
  return "?";
}

namespace {
constexpr float kGeluC = 0.7978845608028654F;  // sqrt(2/pi)

// GELU and SiLU evaluate through the repo's transcendental kernels
// (tensor/kernels.h), so training, the sweep and serving share one
// definition of tanh and exp on every host.
template <Act A>
float act_one(float x) {
  if constexpr (A == Act::kRelu) {
    return x > 0.0F ? x : 0.0F;
  } else if constexpr (A == Act::kRelu6) {
    return x < 0.0F ? 0.0F : (x > 6.0F ? 6.0F : x);
  } else if constexpr (A == Act::kHardSigmoid) {
    return x <= -3.0F ? 0.0F : (x >= 3.0F ? 1.0F : x / 6.0F + 0.5F);
  } else if constexpr (A == Act::kHardSwish) {
    return x <= -3.0F ? 0.0F : (x >= 3.0F ? x : x * (x + 3.0F) / 6.0F);
  } else if constexpr (A == Act::kGelu) {
    return kernels::gelu_f32(x);
  } else {
    const float s = 1.0F / (1.0F + kernels::exp_f32(-x));
    return x * s;
  }
}

// One switch per call; the loop body is act_one<A>, the expression
// act_forward evaluates per element, so results are identical. GELU runs
// the batched kernel at the active level, bit-identical to act_one.
template <Act A>
void act_loop(const float* x, float* o, std::int64_t n) {
  if constexpr (A == Act::kGelu) {
    kernels::gelu_f32(kernels::active_level(), n, x, o);
  } else {
    for (std::int64_t i = 0; i < n; ++i) o[i] = act_one<A>(x[i]);
  }
}
}  // namespace

float act_forward(Act a, float x) {
  switch (a) {
    case Act::kRelu: return act_one<Act::kRelu>(x);
    case Act::kRelu6: return act_one<Act::kRelu6>(x);
    case Act::kHardSigmoid: return act_one<Act::kHardSigmoid>(x);
    case Act::kHardSwish: return act_one<Act::kHardSwish>(x);
    case Act::kGelu: return act_one<Act::kGelu>(x);
    case Act::kSilu: return act_one<Act::kSilu>(x);
  }
  return x;
}

void act_forward_n(Act a, const float* x, float* o, std::int64_t n) {
  switch (a) {
    case Act::kRelu: act_loop<Act::kRelu>(x, o, n); return;
    case Act::kRelu6: act_loop<Act::kRelu6>(x, o, n); return;
    case Act::kHardSigmoid: act_loop<Act::kHardSigmoid>(x, o, n); return;
    case Act::kHardSwish: act_loop<Act::kHardSwish>(x, o, n); return;
    case Act::kGelu: act_loop<Act::kGelu>(x, o, n); return;
    case Act::kSilu: act_loop<Act::kSilu>(x, o, n); return;
  }
}

float act_backward(Act a, float x) {
  switch (a) {
    case Act::kRelu: return x > 0.0F ? 1.0F : 0.0F;
    case Act::kRelu6: return (x > 0.0F && x < 6.0F) ? 1.0F : 0.0F;
    case Act::kHardSigmoid: return (x > -3.0F && x < 3.0F) ? 1.0F / 6.0F : 0.0F;
    case Act::kHardSwish:
      return x <= -3.0F ? 0.0F : (x >= 3.0F ? 1.0F : (2.0F * x + 3.0F) / 6.0F);
    case Act::kGelu: {
      const float x3 = x * x * x;
      const float inner = kGeluC * (x + 0.044715F * x3);
      const float t = kernels::tanh_f32(inner);
      const float sech2 = 1.0F - t * t;
      return 0.5F * (1.0F + t) + 0.5F * x * sech2 * kGeluC * (1.0F + 3.0F * 0.044715F * x * x);
    }
    case Act::kSilu: {
      const float s = 1.0F / (1.0F + kernels::exp_f32(-x));
      return s * (1.0F + x * (1.0F - s));
    }
  }
  return 1.0F;
}

Tensor Activation::forward(const Tensor& input) {
  input_ = input;
  Tensor out(input.shape());
  act_forward_n(kind_, input.data(), out.data(), input.numel());
  return out;
}

Tensor Activation::backward(const Tensor& grad_output) {
  Tensor grad(grad_output.shape());
  const float* g = grad_output.data();
  const float* x = input_.data();
  float* gi = grad.data();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) gi[i] = g[i] * act_backward(kind_, x[i]);
  return grad;
}

// ---------------------------------------------------------------------------
// Pooling / Flatten
// ---------------------------------------------------------------------------

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {}

Tensor MaxPool2d::forward(const Tensor& input) {
  if (input.dim() != 4) throw std::invalid_argument("MaxPool2d: expects NCHW input");
  const std::int64_t n = input.size(0);
  const std::int64_t c = input.size(1);
  const std::int64_t h = input.size(2);
  const std::int64_t w = input.size(3);
  const std::int64_t oh = conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t ow = conv_out_size(w, kernel_, stride_, pad_);

  Tensor out({n, c, oh, ow});
  input_shape_ = input.shape();
  argmax_.assign(static_cast<std::size_t>(out.numel()), -1);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (s * c + ch) * h * w;
      float* oplane = out.data() + (s * c + ch) * oh * ow;
      std::int64_t* aplane = argmax_.data() + (s * c + ch) * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = -1;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = oy * stride_ + ky - pad_;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = ox * stride_ + kx - pad_;
              if (ix < 0 || ix >= w) continue;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          oplane[oy * ow + ox] = best;
          aplane[oy * ow + ox] = best_idx;
        }
      }
    }
  }
  return out;
}

void MaxPool2d::forward_into(const float* in, std::int64_t n, std::int64_t c, std::int64_t h,
                             std::int64_t w, float* out) const {
  const std::int64_t oh = conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t ow = conv_out_size(w, kernel_, stride_, pad_);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (s * c + ch) * h * w;
      float* oplane = out + (s * c + ch) * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = oy * stride_ + ky - pad_;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = ox * stride_ + kx - pad_;
              if (ix < 0 || ix >= w) continue;
              const float v = plane[iy * w + ix];
              if (v > best) best = v;
            }
          }
          oplane[oy * ow + ox] = best;
        }
      }
    }
  }
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const std::int64_t n = input_shape_[0];
  const std::int64_t c = input_shape_[1];
  const std::int64_t hw = input_shape_[2] * input_shape_[3];
  const std::int64_t ohw = grad_output.size(2) * grad_output.size(3);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* g = grad_output.data() + (s * c + ch) * ohw;
      const std::int64_t* a = argmax_.data() + (s * c + ch) * ohw;
      float* gi = grad_input.data() + (s * c + ch) * hw;
      for (std::int64_t p = 0; p < ohw; ++p) {
        if (a[p] >= 0) gi[a[p]] += g[p];
      }
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  if (input.dim() != 4) throw std::invalid_argument("GlobalAvgPool: expects NCHW input");
  input_shape_ = input.shape();
  const std::int64_t n = input.size(0);
  const std::int64_t c = input.size(1);
  const std::int64_t hw = input.size(2) * input.size(3);
  Tensor out({n, c});
  forward_into(input.data(), n, c, hw, out.data());
  return out;
}

void GlobalAvgPool::forward_into(const float* in, std::int64_t n, std::int64_t c,
                                 std::int64_t hw, float* out) const {
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (s * c + ch) * hw;
      double acc = 0.0;
      for (std::int64_t p = 0; p < hw; ++p) acc += plane[p];
      out[s * c + ch] = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const std::int64_t n = input_shape_[0];
  const std::int64_t c = input_shape_[1];
  const std::int64_t hw = input_shape_[2] * input_shape_[3];
  const float inv = 1.0F / static_cast<float>(hw);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.data()[s * c + ch] * inv;
      float* gi = grad_input.data() + (s * c + ch) * hw;
      for (std::int64_t p = 0; p < hw; ++p) gi[p] = g;
    }
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input) {
  input_shape_ = input.shape();
  return input.reshape({input.size(0), -1});
}

Tensor Flatten::backward(const Tensor& grad_output) { return grad_output.reshape(input_shape_); }

}  // namespace clado::nn
