#include "clado/serve/plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "clado/backend/backend.h"
#include "clado/nn/attention.h"
#include "clado/obs/obs.h"
#include "clado/quant/act_quant.h"
#include "clado/quant/int8.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"

namespace clado::serve {

using clado::nn::Act;
using clado::nn::act_forward_n;
using clado::nn::Activation;
using clado::nn::BatchNorm2d;
using clado::nn::Conv2d;
using clado::nn::Flatten;
using clado::nn::GlobalAvgPool;
using clado::nn::Identity;
using clado::nn::LayerNorm;
using clado::nn::Linear;
using clado::nn::MaxPool2d;
using clado::nn::Module;
using clado::nn::MultiHeadSelfAttention;
using clado::nn::PatchEmbed;
using clado::nn::ResidualBlock;
using clado::nn::SEBlock;
using clado::nn::Sequential;
using clado::nn::TakeToken;
using clado::nn::TransformerBlock;
using clado::quant::ActFakeQuant;
using clado::quant::ActQuantMode;
using clado::tensor::conv_out_size;
using clado::tensor::shape_numel;
namespace kernels = clado::tensor::kernels;

namespace {

std::string shape_str(const Shape& shape) {
  std::string out = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(shape[i]);
  }
  return out + "]";
}

[[noreturn]] void refuse(const Module& module, const std::string& why) {
  throw std::invalid_argument("CompiledPlan: cannot compile " + module.type_name() + ": " + why);
}

}  // namespace

const char* step_kind_name(StepKind kind) {
  switch (kind) {
    case StepKind::kConv: return "conv";
    case StepKind::kLinear: return "linear";
    case StepKind::kAct: return "act";
    case StepKind::kResidualAdd: return "resadd";
    case StepKind::kSE: return "se";
    case StepKind::kFakeQuant: return "fakequant";
    case StepKind::kMaxPool: return "maxpool";
    case StepKind::kGlobalAvgPool: return "gap";
    case StepKind::kLayerNorm: return "layernorm";
    case StepKind::kTakeToken: return "taketoken";
    case StepKind::kAttention: return "attention";
    case StepKind::kTokens: return "tokens";
    case StepKind::kBatchNorm: return "batchnorm";
  }
  return "?";
}

CompiledPlan::CompiledPlan(Sequential& net, const Shape& sample_shape, std::int64_t max_batch,
                           const PreparedMap* prepared, bool keep_activations)
    : max_batch_(max_batch), prepared_(prepared), keep_activations_(keep_activations) {
  if (max_batch_ < 1) {
    throw std::invalid_argument("CompiledPlan: max_batch must be >= 1");
  }
  sample_numel_ = shape_numel(sample_shape);
  cur_shape_ = sample_shape;
  cur_buf_ = new_buffer(sample_numel_, /*scratch=*/false);
  // The staged batch is live from before step 0 until its last reader.
  buffers_[0].def_step = -1;

  compile_children(net);
  prepared_ = nullptr;  // compile-time only; the map may not outlive the ctor

  output_shape_ = cur_shape_;
  // The logits buffer must survive past the final step so run() can copy it
  // out; extending its interval keeps every intermediate off its storage. A
  // kept plan extends every activation's the same way.
  for (std::size_t id = 0; id < buffers_.size(); ++id) {
    const bool kept = keep_activations_ && !buffers_[id].scratch;
    if (kept || static_cast<int>(id) == cur_buf_) buffers_[id].last_step = std::ssize(steps_);
  }
  assign_offsets();
  input_offset_ = buffers_[0].offset;
}

std::size_t CompiledPlan::first_step(const clado::nn::QuantizableLayer& layer) const {
  const clado::nn::QuantizableLayer* want = &layer;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const PlanStep& s = steps_[i];
    if (s.conv == want || s.linear == want ||
        (s.se != nullptr && (&s.se->fc1() == want || &s.se->fc2() == want))) {
      return i;
    }
  }
  throw std::invalid_argument("CompiledPlan: no step reads this layer");
}

std::size_t CompiledPlan::backend_steps() const {
  std::size_t n = 0;
  for (const auto& step : steps_) n += step.prepared != nullptr ? 1 : 0;
  return n;
}

std::string CompiledPlan::dump() const {
  std::string out;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const PlanStep& step = steps_[i];
    // Successive appends: GCC 12 reports a -Wrestrict false positive on the
    // equivalent operator+ chain under -fsanitize=thread -O3.
    out += '#';
    out += std::to_string(i);
    out += ' ';
    out += step_kind_name(step.kind);
    out += ' ';
    out += shape_str(step.in_shape);
    out += " -> ";
    out += shape_str(step.out_shape);
    if (step.kind == StepKind::kConv || step.kind == StepKind::kLinear) {
      out += " backend=";
      if (step.prepared != nullptr) {
        out += clado::backend::precision_name(step.prepared->precision);
        out += step.in_static_q ? " in=static" : " in=dynamic";
      } else {
        out += "fp32";
      }
    }
    if (step.has_act) out += " +act";
    out += "\n";
  }
  return out;
}

void CompiledPlan::attach_backend(PlanStep& step, const Module& module,
                                  const clado::tensor::kernels::ConvGeometry& geom) {
  if (prepared_ == nullptr) return;
  const auto it = prepared_->find(&module);
  if (it == prepared_->end() || it->second == nullptr) return;
  const clado::backend::PreparedLayer& prep = *it->second;
  if (prep.precision == clado::backend::Precision::kFp32) return;
  const std::int64_t wn = geom.out_channels;
  const std::int64_t wk = geom.in_channels * geom.kernel * geom.kernel;
  if (prep.n != wn || prep.k != wk) {
    // The Engine built this entry from the same module's weight tensor; a
    // geometry mismatch means the map was wired against the wrong replica.
    throw std::logic_error("CompiledPlan: prepared layer is [" + std::to_string(prep.n) + ", " +
                           std::to_string(prep.k) + "], module wants [" + std::to_string(wn) +
                           ", " + std::to_string(wk) + "]");
  }
  step.prepared = &prep;
  const PlanBuffer& src = buffers_[static_cast<std::size_t>(step.in)];
  if (src.fq8) {
    // The producing fake-quant pinned the input onto an 8-bit affine grid;
    // quantizing at (scale, nearbyint(zp) - 128) is an exact u8 -> s8 shift,
    // so the qparams freeze at compile time.
    step.in_static_q = true;
    step.in_scale = src.fq_scale;
    step.in_zp = static_cast<std::int32_t>(std::nearbyint(src.fq_zero_point)) - 128;
  }
  const kernels::Level level = kernels::active_level();
  const kernels::QConvWorkspace ws = kernels::qconv2d_s8_workspace(level, geom);
  step.q_geom = geom;
  step.q_in.resize(static_cast<std::size_t>(max_batch_ * shape_numel(step.in_shape)));
  step.q_codes.resize(static_cast<std::size_t>(ws.codes));
  step.indices.resize(static_cast<std::size_t>(ws.indices));
  kernels::qconv2d_s8_table(level, geom, step.indices.data());
}

int CompiledPlan::new_buffer(std::int64_t per_sample, bool scratch, std::int64_t scratch_numel) {
  PlanBuffer b;
  b.per_sample = scratch ? 0 : per_sample;
  b.numel = scratch ? scratch_numel : per_sample * max_batch_;
  b.def_step = static_cast<std::int64_t>(steps_.size());
  b.last_step = b.def_step;
  b.scratch = scratch;
  buffers_.push_back(b);
  return static_cast<int>(buffers_.size() - 1);
}

void CompiledPlan::note_read(int buffer) {
  auto& b = buffers_[static_cast<std::size_t>(buffer)];
  b.last_step = std::max(b.last_step, static_cast<std::int64_t>(steps_.size()));
}

void CompiledPlan::push_step(PlanStep step) {
  for (const int in : {step.in, step.in2, step.in3}) {
    if (in >= 0) note_read(in);
  }
  step.per_sample_in = shape_numel(step.in_shape);
  step.per_sample_out = shape_numel(step.out_shape);
  step.out = new_buffer(step.per_sample_out, /*scratch=*/false);
  cur_buf_ = step.out;
  cur_shape_ = step.out_shape;
  steps_.push_back(std::move(step));
}

void CompiledPlan::emit_residual_add(int a, int b, const Shape& shape, bool relu) {
  PlanStep step;
  step.kind = StepKind::kResidualAdd;
  step.in = a;
  step.in2 = b;
  step.has_act = relu;
  step.act = Act::kRelu;
  step.in_shape = shape;
  step.out_shape = shape;
  step.label = "plan/resadd";
  push_step(std::move(step));
}

void CompiledPlan::compile_children(Sequential& seq) {
  for (std::size_t k = 0; k < seq.size(); ++k) compile_module(seq.child(k));
}

void CompiledPlan::compile_module(Module& module) {
  if (auto* seq = dynamic_cast<Sequential*>(&module)) {
    compile_children(*seq);
    return;
  }
  if (dynamic_cast<Identity*>(&module) != nullptr) return;
  if (dynamic_cast<Flatten*>(&module) != nullptr) {
    // Pure reshape on contiguous storage: fold the per-sample shape, no step.
    cur_shape_ = {shape_numel(cur_shape_)};
    return;
  }

  if (auto* res = dynamic_cast<ResidualBlock*>(&module)) {
    const int in_buf = cur_buf_;
    const Shape in_shape = cur_shape_;
    // The shortcut branch (or the identity add) reads in_buf after the main
    // path compiles; pin it so a main-path-leading activation cannot fuse
    // in place onto the step that produced it (pre-activation blocks).
    ++buffers_[static_cast<std::size_t>(in_buf)].pinned;
    compile_children(res->main_path());
    const int main_buf = cur_buf_;
    const Shape main_shape = cur_shape_;
    int short_buf = in_buf;
    Shape short_shape = in_shape;
    if (res->shortcut_path() != nullptr) {
      cur_buf_ = in_buf;
      cur_shape_ = in_shape;
      // The add reads main_buf after the shortcut compiles.
      ++buffers_[static_cast<std::size_t>(main_buf)].pinned;
      compile_children(*res->shortcut_path());
      --buffers_[static_cast<std::size_t>(main_buf)].pinned;
      short_buf = cur_buf_;
      short_shape = cur_shape_;
    }
    --buffers_[static_cast<std::size_t>(in_buf)].pinned;
    if (short_shape != main_shape) {
      // Mirror the eager path, which throws on the `y += shortcut` shape
      // mismatch — never read per_sample(main) floats from a smaller buffer.
      throw std::invalid_argument("CompiledPlan: ResidualBlock branch shapes differ (main " +
                                  shape_str(main_shape) + " vs shortcut " +
                                  shape_str(short_shape) + ")");
    }
    emit_residual_add(main_buf, short_buf, main_shape, res->final_relu());
    return;
  }

  if (auto* block = dynamic_cast<TransformerBlock*>(&module)) {
    compile_transformer(*block);
    return;
  }

  if (auto* patch = dynamic_cast<PatchEmbed*>(&module)) {
    compile_module(patch->projection());
    const std::int64_t t = patch->patch_tokens();
    const std::int64_t d = patch->embed_dim();
    if (shape_numel(cur_shape_) != d * t) {
      refuse(module, "patch grid " + shape_str(cur_shape_) + " does not hold " +
                         std::to_string(t) + " tokens");
    }
    PlanStep step;
    step.kind = StepKind::kTokens;
    step.patch = patch;
    step.in = cur_buf_;
    step.in_shape = cur_shape_;
    step.out_shape = {t + 1, d};
    step.label = "plan/tokens";
    push_step(std::move(step));
    return;
  }

  if (auto* conv = dynamic_cast<Conv2d*>(&module)) {
    if (conv->has_weight_transform()) refuse(module, "a weight transform is installed");
    if (cur_shape_.size() != 3 || cur_shape_[0] != conv->in_channels()) {
      refuse(module, "input " + shape_str(cur_shape_) + " is not [" +
                         std::to_string(conv->in_channels()) + ", H, W]");
    }
    const std::int64_t h = cur_shape_[1];
    const std::int64_t w = cur_shape_[2];
    const std::int64_t oh = conv_out_size(h, conv->kernel(), conv->stride(), conv->padding());
    const std::int64_t ow = conv_out_size(w, conv->kernel(), conv->stride(), conv->padding());
    PlanStep step;
    step.kind = StepKind::kConv;
    step.conv = conv;
    step.in = cur_buf_;
    step.in_h = h;
    step.in_w = w;
    step.in_shape = cur_shape_;
    step.out_shape = {conv->out_channels(), oh, ow};
    step.label = "plan/conv";
    // The integer conv entry reduces over the full patch — the no-groups
    // layout (grouped convs keep their fp32 kernel).
    if (conv->groups() == 1) attach_backend(step, *conv, conv->geometry(h, w));
    if (step.prepared == nullptr) {
      // The fp32 conv entry's workspace does not grow with the batch, so it
      // is NOT scaled by max_batch.
      const clado::tensor::kernels::ConvWorkspace ws =
          clado::tensor::kernels::conv2d_f32_workspace(clado::tensor::kernels::active_level(),
                                                       conv->geometry(h, w));
      step.scratch = new_buffer(0, /*scratch=*/true, ws.floats);
      step.indices.resize(static_cast<std::size_t>(ws.indices));
    }
    push_step(std::move(step));
    return;
  }

  if (auto* fc = dynamic_cast<Linear*>(&module)) {
    if (fc->has_weight_transform()) refuse(module, "a weight transform is installed");
    if (cur_shape_.empty() || cur_shape_.back() != fc->in_features()) {
      refuse(module, "input " + shape_str(cur_shape_) + " does not end in " +
                         std::to_string(fc->in_features()) + " features");
    }
    PlanStep step;
    step.kind = StepKind::kLinear;
    step.linear = fc;
    step.in = cur_buf_;
    step.in_shape = cur_shape_;
    step.rows_per_sample = shape_numel(cur_shape_) / fc->in_features();
    step.out_shape = cur_shape_;
    step.out_shape.back() = fc->out_features();
    step.label = "plan/linear";
    // Each row is the 1x1 conv of a [k, 1, 1] image.
    clado::tensor::kernels::ConvGeometry geom;
    geom.in_channels = fc->in_features();
    geom.height = 1;
    geom.width = 1;
    geom.out_channels = fc->out_features();
    geom.kernel = 1;
    attach_backend(step, *fc, geom);
    push_step(std::move(step));
    return;
  }

  if (auto* act = dynamic_cast<Activation*>(&module)) {
    if (!steps_.empty()) {
      PlanStep& back = steps_.back();
      const bool fusable = back.kind == StepKind::kConv || back.kind == StepKind::kLinear ||
                           back.kind == StepKind::kResidualAdd ||
                           back.kind == StepKind::kBatchNorm;
      // Fusing mutates cur_buf_ in place, which is only sound when the
      // producing step is the buffer's sole reader — a pinned buffer has a
      // pending residual-branch read of the pre-activation values.
      if (fusable && !back.has_act && back.out == cur_buf_ &&
          buffers_[static_cast<std::size_t>(cur_buf_)].pinned == 0) {
        back.has_act = true;
        back.act = act->kind();
        return;
      }
    }
    PlanStep step;
    step.kind = StepKind::kAct;
    step.act = act->kind();
    step.in = cur_buf_;
    step.in_shape = cur_shape_;
    step.out_shape = cur_shape_;
    step.label = "plan/act";
    push_step(std::move(step));
    return;
  }

  if (auto* fq = dynamic_cast<ActFakeQuant*>(&module)) {
    const ActQuantMode mode = fq->mode();
    if (mode == ActQuantMode::kBypass ||
        (mode == ActQuantMode::kQuantize && !fq->calibrated())) {
      return;  // identity
    }
    if (mode == ActQuantMode::kObserve) {
      refuse(module, "it is in observe mode; calibrate and freeze it first");
    }
    PlanStep step;
    step.kind = StepKind::kFakeQuant;
    step.fq_scale = fq->scale();
    step.fq_zero_point = fq->zero_point();
    step.fq_levels = std::ldexp(1.0F, fq->bits()) - 1.0F;
    step.in = cur_buf_;
    step.in_shape = cur_shape_;
    step.out_shape = cur_shape_;
    step.label = "plan/fq";
    const bool on_grid8 =
        fq->bits() == 8 && step.fq_zero_point == std::nearbyint(step.fq_zero_point);
    push_step(std::move(step));
    if (on_grid8) {
      // Downstream backend steps may quantize this buffer statically: its
      // values sit exactly on the (scale, zero_point) grid.
      auto& ob = buffers_[static_cast<std::size_t>(cur_buf_)];
      ob.fq8 = true;
      ob.fq_scale = fq->scale();
      ob.fq_zero_point = fq->zero_point();
    }
    return;
  }

  if (auto* bn = dynamic_cast<BatchNorm2d*>(&module)) {
    if (bn->training()) refuse(module, "it is in training mode (batch statistics)");
    if (cur_shape_.size() != 3 || cur_shape_[0] != bn->channels()) {
      refuse(module, "input " + shape_str(cur_shape_) + " is not [" +
                         std::to_string(bn->channels()) + ", H, W]");
    }
    PlanStep step;
    step.kind = StepKind::kBatchNorm;
    step.bn = bn;
    step.in = cur_buf_;
    step.channels = cur_shape_[0];
    step.hw = cur_shape_[1] * cur_shape_[2];
    step.in_shape = cur_shape_;
    step.out_shape = cur_shape_;
    step.label = "plan/bn";
    push_step(std::move(step));
    return;
  }

  if (auto* se = dynamic_cast<SEBlock*>(&module)) {
    if (se->has_weight_transform()) refuse(module, "a weight transform is installed");
    if (cur_shape_.size() != 3 || cur_shape_[0] != se->channels()) {
      refuse(module, "input " + shape_str(cur_shape_) + " is not [" +
                         std::to_string(se->channels()) + ", H, W]");
    }
    PlanStep step;
    step.kind = StepKind::kSE;
    step.se = se;
    step.in = cur_buf_;
    step.channels = cur_shape_[0];
    step.hw = cur_shape_[1] * cur_shape_[2];
    step.in_shape = cur_shape_;
    step.out_shape = cur_shape_;
    step.label = "plan/se";
    step.scratch = new_buffer(0, /*scratch=*/true, se->scratch_numel(max_batch_));
    push_step(std::move(step));
    return;
  }

  if (auto* pool = dynamic_cast<MaxPool2d*>(&module)) {
    if (cur_shape_.size() != 3) {
      refuse(module, "input " + shape_str(cur_shape_) + " is not [C, H, W]");
    }
    const std::int64_t h = cur_shape_[1];
    const std::int64_t w = cur_shape_[2];
    const std::int64_t oh = conv_out_size(h, pool->kernel(), pool->stride(), pool->padding());
    const std::int64_t ow = conv_out_size(w, pool->kernel(), pool->stride(), pool->padding());
    PlanStep step;
    step.kind = StepKind::kMaxPool;
    step.pool = pool;
    step.in = cur_buf_;
    step.channels = cur_shape_[0];
    step.in_h = h;
    step.in_w = w;
    step.in_shape = cur_shape_;
    step.out_shape = {cur_shape_[0], oh, ow};
    step.label = "plan/maxpool";
    push_step(std::move(step));
    return;
  }

  if (auto* gap = dynamic_cast<GlobalAvgPool*>(&module)) {
    if (cur_shape_.size() != 3) {
      refuse(module, "input " + shape_str(cur_shape_) + " is not [C, H, W]");
    }
    PlanStep step;
    step.kind = StepKind::kGlobalAvgPool;
    step.gap = gap;
    step.in = cur_buf_;
    step.channels = cur_shape_[0];
    step.hw = cur_shape_[1] * cur_shape_[2];
    step.in_shape = cur_shape_;
    step.out_shape = {cur_shape_[0]};
    step.label = "plan/gap";
    push_step(std::move(step));
    return;
  }

  if (auto* ln = dynamic_cast<LayerNorm*>(&module)) {
    if (cur_shape_.empty() || cur_shape_.back() != ln->features()) {
      refuse(module, "input " + shape_str(cur_shape_) + " does not end in " +
                         std::to_string(ln->features()) + " features");
    }
    PlanStep step;
    step.kind = StepKind::kLayerNorm;
    step.ln = ln;
    step.in = cur_buf_;
    step.rows_per_sample = shape_numel(cur_shape_) / ln->features();
    step.in_shape = cur_shape_;
    step.out_shape = cur_shape_;
    step.label = "plan/ln";
    push_step(std::move(step));
    return;
  }

  if (auto* take = dynamic_cast<TakeToken*>(&module)) {
    if (cur_shape_.size() != 2 || take->index() < 0 || take->index() >= cur_shape_[0]) {
      refuse(module, "token " + std::to_string(take->index()) + " is out of range for input " +
                         shape_str(cur_shape_));
    }
    PlanStep step;
    step.kind = StepKind::kTakeToken;
    step.in = cur_buf_;
    step.tokens = cur_shape_[0];
    step.dim = cur_shape_[1];
    step.take_index = take->index();
    step.in_shape = cur_shape_;
    step.out_shape = {cur_shape_[1]};
    step.label = "plan/take";
    push_step(std::move(step));
    return;
  }

  refuse(module, "the plan has no step for this module type");
}

void CompiledPlan::compile_transformer(TransformerBlock& block) {
  // forward(): h = x + attn(ln1(x)); y = h + fc2(gelu(fc1(ln2(h)))).
  MultiHeadSelfAttention& attn = block.attention();
  const int x = cur_buf_;
  const Shape x_shape = cur_shape_;
  if (x_shape.size() != 2 || x_shape[1] != attn.embed_dim()) {
    refuse(block, "input " + shape_str(x_shape) + " is not [T, " +
                      std::to_string(attn.embed_dim()) + "]");
  }
  compile_module(block.ln1());
  const int normed = cur_buf_;
  std::array<int, 3> qkv{};
  std::array<Linear*, 3> proj{&attn.query(), &attn.key(), &attn.value()};
  for (std::size_t i = 0; i < proj.size(); ++i) {
    cur_buf_ = normed;
    cur_shape_ = x_shape;
    compile_module(*proj[i]);
    qkv[i] = cur_buf_;
  }
  PlanStep step;
  step.kind = StepKind::kAttention;
  step.in = qkv[0];
  step.in2 = qkv[1];
  step.in3 = qkv[2];
  step.tokens = x_shape[0];
  step.dim = x_shape[1];
  step.heads = attn.num_heads();
  step.in_shape = x_shape;
  step.out_shape = x_shape;
  step.label = "plan/attention";
  // probs [max_batch, heads, T, T] | the attention kernel's scratch.
  step.scratch = new_buffer(0, /*scratch=*/true,
                            max_batch_ * step.heads * step.tokens * step.tokens +
                                kernels::attend_f32_scratch(step.tokens, step.dim / step.heads));
  push_step(std::move(step));
  compile_module(attn.out_proj());
  emit_residual_add(x, cur_buf_, x_shape, /*relu=*/false);
  const int h = cur_buf_;
  compile_module(block.ln2());
  compile_module(block.fc1());
  compile_module(block.gelu());  // fuses into the fc1 step
  compile_module(block.fc2());
  emit_residual_add(h, cur_buf_, x_shape, /*relu=*/false);
}

void CompiledPlan::assign_offsets() {
  // 16-float (64-byte cache line) alignment for every buffer start.
  constexpr std::int64_t kAlign = 16;
  const auto align_up = [](std::int64_t v) { return (v + kAlign - 1) / kAlign * kAlign; };
  const auto overlap = [](const PlanBuffer& a, const PlanBuffer& b) {
    return a.def_step <= b.last_step && b.def_step <= a.last_step;
  };

  // Place largest-first (stable on ties) — classic first-fit-decreasing
  // keeps the arena tight while staying deterministic.
  std::vector<std::size_t> order(buffers_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return buffers_[a].numel > buffers_[b].numel;
  });

  std::int64_t total = 0;
  std::vector<const PlanBuffer*> live;
  for (const std::size_t id : order) {
    PlanBuffer& b = buffers_[id];
    live.clear();
    for (const std::size_t other : order) {
      if (other == id) continue;
      const PlanBuffer& o = buffers_[other];
      if (o.offset >= 0 && overlap(b, o)) live.push_back(&o);
    }
    std::sort(live.begin(), live.end(),
              [](const PlanBuffer* x, const PlanBuffer* y) { return x->offset < y->offset; });
    std::int64_t off = 0;
    for (const PlanBuffer* p : live) {
      if (off + b.numel <= p->offset) break;
      off = std::max(off, align_up(p->offset + p->numel));
    }
    b.offset = off;
    total = std::max(total, off + b.numel);
  }
  arena_.assign(static_cast<std::size_t>(total), 0.0F);
}

void CompiledPlan::run_from(std::size_t first, std::int64_t n, Tensor& out) {
  if (n < 1 || n > max_batch_) {
    throw std::invalid_argument("CompiledPlan::run: n " + std::to_string(n) +
                                " out of [1, " + std::to_string(max_batch_) + "]");
  }
  if (first > 0 && (!keep_activations_ || first > steps_.size())) {
    throw std::invalid_argument("CompiledPlan::run_from: step " + std::to_string(first) +
                                " needs a keep_activations plan of at least that many steps");
  }
  const bool traced = clado::obs::trace_enabled();
  for (std::size_t i = first; i < steps_.size(); ++i) {
    if (traced) {
      const clado::obs::Span span(steps_[i].label);
      run_step(steps_[i], n);
    } else {
      run_step(steps_[i], n);
    }
  }

  want_shape_.clear();
  want_shape_.push_back(n);
  for (const std::int64_t d : output_shape_) want_shape_.push_back(d);
  if (out.shape() != want_shape_) out = Tensor(want_shape_);
  std::memcpy(out.data(), buf(cur_buf_),
              sizeof(float) * static_cast<std::size_t>(out.numel()));
}

void CompiledPlan::run_backend(PlanStep& step, std::int64_t n) {
  const kernels::Level level = kernels::active_level();
  const float* x = buf(step.in);
  const std::int64_t total = n * step.per_sample_in;
  if (!step.in_static_q) {
    // Dynamic input quantization: derive per-run qparams from the min/max
    // of the whole staged batch.
    float lo = x[0];
    float hi = x[0];
    for (std::int64_t i = 1; i < total; ++i) {
      lo = std::min(lo, x[i]);
      hi = std::max(hi, x[i]);
    }
    const clado::quant::QParams qp = clado::quant::choose_qparams(lo, hi);
    step.in_scale = qp.scale;
    step.in_zp = qp.zero_point;
  }
  kernels::quantize_f32_s8(level, total, x, 1.0F / step.in_scale, step.in_zp, step.q_in.data());
  const bool conv = step.kind == StepKind::kConv;
  kernels::qconv2d_s8(level, step.q_geom, conv ? n : n * step.rows_per_sample, step.q_in.data(),
                      step.in_zp, step.prepared->weights(), step.in_scale * step.prepared->w_scale,
                      conv ? step.conv->bias_data() : step.linear->bias_data(),
                      step.indices.data(), step.q_codes.data(), buf(step.out));
}

void CompiledPlan::run_step(PlanStep& step, std::int64_t n) {
  switch (step.kind) {
    case StepKind::kConv:
      if (step.prepared != nullptr) {
        run_backend(step, n);
      } else {
        step.conv->forward_into(buf(step.in), n, step.in_h, step.in_w, buf(step.scratch),
                                step.indices.data(), buf(step.out));
      }
      break;
    case StepKind::kLinear:
      if (step.prepared != nullptr) {
        run_backend(step, n);
      } else {
        step.linear->forward_into(buf(step.in), n * step.rows_per_sample, buf(step.out));
      }
      break;
    case StepKind::kAct:
      act_forward_n(step.act, buf(step.in), buf(step.out), n * step.per_sample_out);
      return;  // step.act already applied; skip the fused-act epilogue
    case StepKind::kResidualAdd: {
      const float* a = buf(step.in);
      const float* b = buf(step.in2);
      float* o = buf(step.out);
      const std::int64_t total = n * step.per_sample_out;
      for (std::int64_t i = 0; i < total; ++i) o[i] = a[i] + b[i];
      break;
    }
    case StepKind::kSE:
      step.se->forward_into(buf(step.in), n, max_batch_, step.hw, buf(step.scratch),
                            buf(step.out));
      break;
    case StepKind::kFakeQuant:
      // ActFakeQuant::forward's kernel, on the snapshotted grid.
      kernels::fake_quant_f32(kernels::active_level(), n * step.per_sample_out, buf(step.in),
                              step.fq_scale, step.fq_zero_point, step.fq_levels, buf(step.out));
      break;
    case StepKind::kMaxPool:
      step.pool->forward_into(buf(step.in), n, step.channels, step.in_h, step.in_w,
                              buf(step.out));
      break;
    case StepKind::kGlobalAvgPool:
      step.gap->forward_into(buf(step.in), n, step.channels, step.hw, buf(step.out));
      break;
    case StepKind::kLayerNorm:
      step.ln->forward_into(buf(step.in), n * step.rows_per_sample, buf(step.out));
      break;
    case StepKind::kTakeToken: {
      const float* in = buf(step.in);
      float* o = buf(step.out);
      for (std::int64_t s = 0; s < n; ++s) {
        const float* row = in + (s * step.tokens + step.take_index) * step.dim;
        float* orow = o + s * step.dim;
        for (std::int64_t j = 0; j < step.dim; ++j) orow[j] = row[j];
      }
      break;
    }
    case StepKind::kAttention: {
      float* probs = buf(step.scratch);
      float* scratch = probs + max_batch_ * step.heads * step.tokens * step.tokens;
      kernels::attend_f32(kernels::active_level(), n, step.tokens, step.dim, step.heads,
                          buf(step.in), buf(step.in2), buf(step.in3), scratch, probs,
                          buf(step.out));
      break;
    }
    case StepKind::kTokens:
      step.patch->tokens_into(buf(step.in), n, buf(step.out));
      break;
    case StepKind::kBatchNorm:
      step.bn->forward_into(buf(step.in), n, step.hw, buf(step.out));
      break;
  }
  if (step.has_act) act_forward_n(step.act, buf(step.out), buf(step.out), n * step.per_sample_out);
}

}  // namespace clado::serve
