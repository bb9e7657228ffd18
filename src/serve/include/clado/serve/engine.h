// clado::serve — serving a CLADO bit-width assignment.
//
// An Engine is the deployable form of a trained model plus an MPQ
// assignment: at load time the network is frozen once (BatchNorm folded,
// weights overwritten with Q(w, b_i) via clado::quant::freeze_quantized),
// then compiled into CompiledPlans — the one way an Engine executes; no
// Module::forward runs while serving, and a network the plan cannot compile
// is refused at construction. A plan's arena holds one in-flight batch, so
// the Engine compiles `replicas` plans over its one frozen model, which the
// plans only read: server worker w runs batched forwards on plan w, so
// workers never contend on arenas while the heavy GEMMs inside each forward
// still fan out across the shared tensor::ThreadPool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clado/backend/backend.h"
#include "clado/models/model.h"
#include "clado/serve/plan.h"
#include "clado/tensor/tensor.h"

namespace clado::serve {

using clado::tensor::Shape;
using clado::tensor::Tensor;

/// No choice left: every Engine compiles its plan. The enum and
/// EngineSpec::fusion exist only because perfbench/serving.cpp sets
/// `spec.fusion = Fusion::kOn`, and the benchmark's sources change only
/// together with the benchmark (ROADMAP item 10 deletes both then).
enum class Fusion { kOn };

/// Whether quantized layers execute on true integer backends (int8/int4
/// kernels selected per layer from the frozen bit assignment) instead of
/// the fake-quant fp32 simulation. kAuto defers to the CLADO_BACKEND env
/// var ("on"/"1" or "off"/"0"; unset = off).
enum class BackendMode { kAuto, kOn, kOff };

/// How to freeze an Engine's weights at load time.
struct EngineSpec {
  /// Per-layer bit-widths (one entry per Model::quant_layers, 0 = keep
  /// fp32); empty = all-fp32 engine. BatchNorm is folded either way, so
  /// fp32 and quantized engines run the same deployment graph.
  std::vector<int> bits;
  int replicas = 1;   ///< independent plans (arenas), >= server workers
  std::string label;  ///< display name, e.g. "int8", "mixed-0.375", "fp32"
  /// Largest batch each replica's compiled plan is sized for; infer()
  /// chunks bigger batches through the plan in pieces of this size.
  std::int64_t max_batch = 32;
  /// Has no effect; kept only for perfbench/serving.cpp (see Fusion).
  Fusion fusion = Fusion::kOn;
  BackendMode backend = BackendMode::kAuto;
};

/// Immutable, pre-quantized inference engine. Thread-safe across distinct
/// replica ids; calls on the same replica must not overlap.
class Engine {
 public:
  /// Takes ownership of a pretrained (and, for quantized serving,
  /// activation-calibrated) model, freezes it per `spec` and compiles
  /// `spec.replicas` plans over it. Throws std::invalid_argument on a bits/layer-count mismatch,
  /// replicas < 1, max_batch < 1, a module the plan cannot compile (see
  /// CompiledPlan), or a network whose output is not [num_classes] per
  /// sample.
  Engine(clado::models::Model model, EngineSpec spec);

  const std::string& label() const { return spec_.label; }
  const std::string& model_name() const { return model_.name; }
  int replicas() const { return static_cast<int>(plans_.size()); }
  std::int64_t num_classes() const { return model_.num_classes; }
  const Shape& sample_shape() const { return sample_shape_; }  ///< [C, H, W]
  const std::vector<int>& bits() const { return spec_.bits; }
  /// Frozen weight storage (Σ |w_i| · b_i / 8; fp32 layers at 32 bits).
  double weight_bytes() const { return weight_bytes_; }
  int batchnorms_folded() const { return batchnorms_folded_; }

  /// Batched forward: input [N, C, H, W] -> logits [N, num_classes], run
  /// through replica `replica`'s CompiledPlan in chunks of at most
  /// plan_batch_capacity() samples. Throws std::invalid_argument on a shape
  /// mismatch or an out-of-range replica id.
  Tensor infer(const Tensor& batch, int replica = 0);

  /// Plan arena batch capacity (EngineSpec::max_batch).
  std::int64_t plan_batch_capacity() const { return spec_.max_batch; }

  /// True when quantized layers execute on integer backends (BackendMode
  /// resolved to on).
  bool backend_enabled() const { return backend_enabled_; }
  /// Per-quant-layer execution material (empty unless backend_enabled());
  /// ordered like Model::quant_layers / EngineSpec::bits.
  const std::vector<clado::backend::PreparedLayer>& prepared_layers() const {
    return prepared_;
  }

  /// Pinned batch-stacking buffer of `replica`'s plan (room for
  /// plan_batch_capacity() samples of sample_shape()). Callers memcpy
  /// samples here, then call infer_pinned.
  float* batch_buffer(int replica = 0);

  /// Runs the plan on the first `n` samples staged in batch_buffer(),
  /// writing logits into `out` ([n, num_classes]; reallocated only on a
  /// shape change, so steady-state same-n calls are allocation-free).
  void infer_pinned(std::int64_t n, Tensor& out, int replica = 0);

  /// Compiled plan of `replica` — plan introspection for tests and
  /// diagnostics.
  const CompiledPlan* plan(int replica = 0) const;

 private:
  CompiledPlan& checked_plan(int replica) const;

  EngineSpec spec_;
  /// The frozen network every plan reads; declared before plans_ so the
  /// plans are destroyed first.
  clado::models::Model model_;
  bool backend_enabled_ = false;
  /// Integer codes per quant layer, built once from the frozen model and
  /// shared (by pointer) with every plan. Stable storage: never resized
  /// after construction.
  std::vector<clado::backend::PreparedLayer> prepared_;
  std::vector<std::unique_ptr<CompiledPlan>> plans_;  ///< one per replica
  Shape sample_shape_;
  double weight_bytes_ = 0.0;
  int batchnorms_folded_ = 0;
};

}  // namespace clado::serve
