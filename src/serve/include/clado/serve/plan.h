// clado::serve::CompiledPlan — the graph compiler behind every serving
// Engine and every sensitivity-sweep measurement.
//
// A Sequential is walked once into a flat list of typed PlanSteps over a
// single preplanned float arena:
//   * conv→(BN)→activation chains collapse into one step (the activation is
//     applied in-place on the output buffer; an unfolded eval-mode BN, as
//     the sweep runs it, is a step of its own),
//   * a PatchEmbed becomes its conv step plus a tokens step, and a
//     TransformerBlock becomes layernorm, q/k/v linear, attention, out-proj
//     linear, residual-add, layernorm, fc1 (GELU fused), fc2 and
//     residual-add steps,
//   * every intermediate, workspace and batch-stacking buffer shape is
//     precomputed for max_batch,
//   * buffers get arena offsets via liveness-based first-fit, so two
//     tensors share storage only when their live ranges are disjoint; with
//     keep_activations every activation lives to the end of the run, so the
//     arena is the sweep's prefix cache (run_from).
// A module outside that vocabulary (a training-mode BatchNorm, an
// observe-mode fake-quant, a conv/linear/SE with a weight transform, an
// unknown type) is refused at compile time, so no Module::forward runs on a
// plan and steady-state run() allocates no tensors. Integer-backend
// conv/linear steps touch no heap at all (plan_alloc_test), but the fp32
// blocked GEMM under fp32 conv/linear/attention steps still allocates its
// packing buffers per call.
//
// fp32 and fake-quant steps replay the exact kernel call sequence and
// elementwise loop order of the eager forwards, so fp32 and fake-quant plan
// logits are bit-identical to Sequential::forward — verified across the
// model zoo, folded and unfolded, in plan_test. Integer-backend steps run
// tensor::kernels::qconv2d_s8 instead, bit-identical to the tests' int8
// reference chain (backend_test).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "clado/backend/backend.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"
#include "clado/nn/sequential.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/tensor.h"

namespace clado::serve {

using clado::tensor::Shape;
using clado::tensor::Tensor;

/// Per-layer execution material the Engine hands the compiler: module ->
/// the PreparedLayer (integer codes + precision) built from the WeightCodes
/// captured at freeze. Layers absent from the map (or mapped to a kFp32
/// entry) keep the eager fp32 kernels.
using PreparedMap =
    std::unordered_map<const clado::nn::Module*, const clado::backend::PreparedLayer*>;

enum class StepKind {
  kConv,           ///< Conv2d (+ optional fused activation)
  kLinear,         ///< Linear (+ optional fused activation)
  kAct,            ///< standalone activation
  kResidualAdd,    ///< out = main + shortcut (+ optional fused ReLU)
  kSE,             ///< squeeze-excitation channel gating
  kFakeQuant,      ///< frozen affine fake quantization
  kMaxPool,        ///< max pooling (no argmax bookkeeping)
  kGlobalAvgPool,  ///< [N,C,H,W] -> [N,C]
  kLayerNorm,      ///< last-axis normalization
  kTakeToken,      ///< [N,T,D] -> [N,D] token readout
  kAttention,      ///< per-head softmax(QKᵀ)·V over projected q/k/v
  kTokens,         ///< PatchEmbed token assembly (class token + positions)
  kBatchNorm,      ///< eval-mode BatchNorm2d (+ optional fused activation)
};

const char* step_kind_name(StepKind kind);

/// One arena-resident tensor of the plan. Live range is the inclusive step
/// interval [def_step, last_step]; the network input uses def_step = -1 and
/// the final output's last_step extends past the last step so neither is
/// ever aliased by an intermediate.
struct PlanBuffer {
  std::int64_t numel = 0;       ///< arena floats reserved (max_batch scale)
  std::int64_t per_sample = 0;  ///< floats per sample (0 for scratch)
  std::int64_t offset = -1;     ///< first-fit arena offset (16-float aligned)
  std::int64_t def_step = 0;
  std::int64_t last_step = 0;
  bool scratch = false;  ///< workspace (conv / SE / attention), not an activation
  /// Compile-time count of pending readers (residual branches that will read
  /// this buffer after the current sub-graph compiles). While nonzero, no
  /// activation may fuse in place onto the step that produced it.
  int pinned = 0;
  /// Set when an 8-bit kFakeQuant step with an integral zero point defines
  /// this buffer: its contents sit exactly on that affine grid, so a
  /// backend step reading it can quantize its input statically (qparams
  /// frozen at compile time) and losslessly.
  bool fq8 = false;
  float fq_scale = 1.0F;
  float fq_zero_point = 0.0F;
};

/// One executable node of the compiled graph. Layer pointers alias the
/// compiled network's module tree (which owns them); steps only read them.
struct PlanStep {
  StepKind kind = StepKind::kConv;
  int in = -1;       ///< input buffer id (attention: q)
  int in2 = -1;      ///< second input (residual shortcut; attention: k)
  int in3 = -1;      ///< third input (attention: v)
  int out = -1;      ///< output buffer id
  int scratch = -1;  ///< workspace buffer id, if any

  const clado::nn::Conv2d* conv = nullptr;
  const clado::nn::Linear* linear = nullptr;
  const clado::nn::SEBlock* se = nullptr;
  const clado::nn::MaxPool2d* pool = nullptr;
  const clado::nn::GlobalAvgPool* gap = nullptr;
  const clado::nn::LayerNorm* ln = nullptr;
  const clado::nn::PatchEmbed* patch = nullptr;
  const clado::nn::BatchNorm2d* bn = nullptr;

  bool has_act = false;  ///< fused pointwise activation applied in place
  clado::nn::Act act = clado::nn::Act::kRelu;

  // Frozen fake-quant parameters (kFakeQuant).
  float fq_scale = 1.0F;
  float fq_zero_point = 0.0F;
  float fq_levels = 0.0F;

  // Per-sample geometry, resolved at compile time.
  std::int64_t in_h = 0, in_w = 0;    ///< conv / pool input spatial dims
  std::int64_t channels = 0, hw = 0;  ///< pool / SE geometry
  std::int64_t rows_per_sample = 0;   ///< linear / layernorm folded rows
  std::int64_t per_sample_in = 0, per_sample_out = 0;
  std::int64_t tokens = 0, dim = 0;   ///< [tokens, dim] (take-token / attention)
  std::int64_t take_index = 0;        ///< token a take-token step reads
  std::int64_t heads = 0;             ///< attention heads
  Shape in_shape, out_shape;  ///< per-sample shapes (no batch axis)

  // Integer-backend execution (kConv / kLinear selected by the Engine's
  // PreparedMap). When `prepared` is null the step runs the fp32 kernels;
  // otherwise the input is quantized to int8 and one qconv2d_s8 call over
  // the whole batch runs the prepared integer weights and requantizes into
  // `out` — float only at the layer seams, exactly the fake-quant
  // semantics. A linear step runs as the 1x1 conv of a [k, 1, 1] image per
  // row.
  const clado::backend::PreparedLayer* prepared = nullptr;
  bool in_static_q = false;  ///< input qparams frozen at compile (FQ producer)
  float in_scale = 1.0F;     ///< input scale (recomputed per run when dynamic)
  std::int32_t in_zp = 0;    ///< input zero point, signed-int8 domain
  clado::tensor::kernels::ConvGeometry q_geom;  ///< the qconv2d_s8 geometry
  std::vector<std::int8_t> q_in;      ///< quantized input, max_batch * per_sample_in
  std::vector<std::int16_t> q_codes;  ///< qconv2d_s8 scratch
  /// Index table of the conv entry: built once here for integer steps;
  /// per-call scratch of conv2d_f32 for fp32 conv steps (whose float
  /// workspace is the `scratch` buffer).
  std::vector<std::int32_t> indices;

  std::string label;  ///< span name, e.g. "plan/conv"
};

/// Compiled execution plan over one network, which it only reads (plans may
/// share one). Not thread-safe: calls on the same plan must not overlap.
class CompiledPlan {
 public:
  /// Walks `net` (eval mode, no weight transforms) with per-sample input
  /// shape `sample_shape` ([C, H, W]) and plans buffers for up to
  /// `max_batch` samples. When `prepared` is non-null, conv/linear steps
  /// whose module maps to an integer PreparedLayer execute on that backend
  /// (consistency-checked against the layer geometry). `keep_activations`
  /// keeps every activation buffer live to the end of the run. Throws
  /// std::invalid_argument on max_batch < 1 and on any module the plan
  /// cannot compile; the message names the module's type.
  CompiledPlan(clado::nn::Sequential& net, const Shape& sample_shape, std::int64_t max_batch,
               const PreparedMap* prepared = nullptr, bool keep_activations = false);

  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  /// Pinned batch-stacking buffer: callers memcpy up to max_batch samples
  /// (sample_numel() floats each, contiguous) here before run().
  float* input() { return arena_.data() + input_offset_; }

  /// Executes the plan on the first `n` staged samples, writing logits into
  /// `out` ([n, num_classes]). `out` is reallocated only when its shape
  /// differs from the wanted one, so steady-state same-n calls allocate no
  /// tensors. Throws std::invalid_argument unless 1 <= n <= max_batch().
  void run(std::int64_t n, Tensor& out) { run_from(0, n, out); }

  /// Executes steps [first, steps().size()) only, over what earlier runs
  /// left in the buffers of the steps before: past step 0 that needs a
  /// keep_activations plan (else std::invalid_argument) and the same `n`.
  void run_from(std::size_t first, std::int64_t n, Tensor& out);

  /// Index of the first step that reads `layer`'s weight (a conv, linear or
  /// SE step). Throws std::invalid_argument when no step does.
  std::size_t first_step(const clado::nn::QuantizableLayer& layer) const;

  // -- introspection (plan_test / diagnostics) ------------------------------
  std::int64_t max_batch() const { return max_batch_; }
  std::int64_t sample_numel() const { return sample_numel_; }
  std::int64_t arena_numel() const { return static_cast<std::int64_t>(arena_.size()); }
  /// Conv/linear steps running on an integer backend.
  std::size_t backend_steps() const;
  const std::vector<PlanStep>& steps() const { return steps_; }
  const std::vector<PlanBuffer>& buffers() const { return buffers_; }
  /// Per-sample output shape (no batch axis), e.g. [num_classes].
  const Shape& output_shape() const { return output_shape_; }
  /// Human-readable step listing, one line per step; conv/linear lines
  /// carry a `backend=fp32|int8|int4` tag (the arithmetic that executes)
  /// plus `in=static|dynamic` for backend steps.
  std::string dump() const;

 private:
  void compile_module(clado::nn::Module& module);
  void compile_children(clado::nn::Sequential& seq);
  void compile_transformer(clado::nn::TransformerBlock& block);
  /// Appends `step`: notes the reads of its inputs, sizes it from its
  /// shapes and gives it a fresh output buffer, which becomes the current
  /// activation.
  void push_step(PlanStep step);
  /// out = buffer `a` + buffer `b` (+ fused ReLU when `relu`), per-sample
  /// `shape`.
  void emit_residual_add(int a, int b, const Shape& shape, bool relu);
  /// Attaches the integer backend to a freshly-built conv/linear step when
  /// the Engine's PreparedMap carries integer codes for `module`: checks the
  /// PreparedLayer against the weight-matrix dims of `geom` (out_channels x
  /// in_channels * kernel^2), sizes the scratch and builds the index table.
  void attach_backend(PlanStep& step, const clado::nn::Module& module,
                      const clado::tensor::kernels::ConvGeometry& geom);
  void run_step(PlanStep& step, std::int64_t n);
  void run_backend(PlanStep& step, std::int64_t n);
  int new_buffer(std::int64_t per_sample, bool scratch, std::int64_t scratch_numel = 0);
  void note_read(int buffer);
  void assign_offsets();
  float* buf(int id) { return arena_.data() + buffers_[static_cast<std::size_t>(id)].offset; }

  std::int64_t max_batch_ = 0;
  std::int64_t sample_numel_ = 0;
  std::int64_t input_offset_ = 0;
  const PreparedMap* prepared_ = nullptr;  ///< compile-time only; null after
  bool keep_activations_ = false;
  int cur_buf_ = 0;    ///< buffer holding the activation during compile
  Shape cur_shape_;    ///< its per-sample shape during compile
  Shape output_shape_;
  std::vector<PlanStep> steps_;
  std::vector<PlanBuffer> buffers_;
  std::vector<float> arena_;
  Shape want_shape_;  ///< reused scratch for run()'s output-shape check
};

}  // namespace clado::serve
