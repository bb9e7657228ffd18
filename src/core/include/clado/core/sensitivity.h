// SensitivityEngine — Algorithm 1 of the paper.
//
// Measures, on a small sensitivity set, the layer-specific and cross-layer
// sensitivities of Eq. (12)/(13) using only forward passes:
//   Ω_ii(Δw_m)          = 2 (L(w + Δw_m^(i)) − L(w))
//   Ω_ij(Δw_m, Δw_n)    = L(w + Δw_m^(i) + Δw_n^(j)) + L(w)
//                          − L(w + Δw_m^(i)) − L(w + Δw_n^(j))
// assembled into the sensitivity matrix Ĝ ∈ R^{|B|I × |B|I} (Eq. 10),
// optionally followed by the PSD projection.
//
// Every measurement runs on a serve::CompiledPlan, the executor that also
// serves every zoo model, compiled over one Model::clone() replica per
// worker thread. Cost reduction vs a naive implementation (same measured
// numbers):
//   * prefix-activation caching — the plan keeps every activation in its
//     arena, so a measurement perturbing layer j re-runs only the steps from
//     j's first one; a pair (i, j) reuses the activations its worker's tail
//     pass left there while layer i alone was perturbed;
//   * quantized weights Q(w, b_m) are computed once per (layer, bit).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "clado/data/synthcv.h"
#include "clado/models/model.h"
#include "clado/tensor/tensor.h"

namespace clado::core {

using clado::data::Batch;
using clado::models::Model;
using clado::tensor::Tensor;

/// RAII weight restoration: snapshots a weight tensor on construction and
/// writes the snapshot back on destruction. The sweep perturbs a replica's
/// layer weights in place; the guard restores them when the layer's
/// measurements end, on every path (a throwing progress callback or
/// measurement included).
class WeightRestoreGuard {
 public:
  explicit WeightRestoreGuard(Tensor& weight) : weight_(weight), original_(weight) {}
  ~WeightRestoreGuard() { weight_ = original_; }
  WeightRestoreGuard(const WeightRestoreGuard&) = delete;
  WeightRestoreGuard& operator=(const WeightRestoreGuard&) = delete;

 private:
  Tensor& weight_;
  Tensor original_;
};

/// Per-engine measurement accounting (Table 2 compares these across
/// engines, so they stay engine-local). Phase wall time is measured by the
/// clado::obs spans "sensitivity/clean_pass" / "sensitivity/singles" /
/// "sensitivity/sweep" / "sensitivity/mpqco_proxy"; `seconds` is the sum of
/// this engine's span durations.
struct SensitivityStats {
  std::int64_t forward_measurements = 0;  ///< loss evaluations performed
  std::int64_t stage_executions = 0;      ///< plan steps actually run
  std::int64_t stage_executions_naive = 0;///< plan steps a cache-less sweep would run
  double seconds = 0.0;
};

/// Opt-in durability for the off-diagonal sweep (the multi-hour phase on
/// real models). When `dir` is non-empty, full_matrix persists completed
/// rows to `<dir>/sweep_<layers>x<bits>.ckpt` (checksummed, written
/// atomically) and, on a later run, resumes by re-measuring only the rows
/// the file does not cover — the resumed matrix is bit-identical to an
/// uninterrupted sweep because rows are committed whole and every Ĝ entry
/// belongs to exactly one row.
struct SweepCheckpointConfig {
  std::string dir;          ///< checkpoint directory; empty disables
  std::int64_t stride = 1;  ///< save after every `stride` committed rows
};

class SensitivityEngine {
 public:
  /// The model must already be activation-calibrated if activation
  /// quantization is desired (the paper quantizes activations to 8 bits
  /// for every algorithm). The batch is the sensitivity set.
  /// `num_threads` is the worker count of single_losses() (resolved as for
  /// full_matrix: 0 = CLADO_NUM_THREADS / hardware). `model` is only read
  /// (cloned per worker). Throws std::invalid_argument, naming the module
  /// type, when the plan cannot compile the network, and when
  /// Model::quant_layers is not in the order the plan first reads them.
  SensitivityEngine(Model& model, Batch batch, int num_threads = 0);

  /// L(w): clean loss on the sensitivity set.
  double base_loss() const { return base_loss_; }

  /// Q(w^(i), b_m) − w^(i), precomputed at construction.
  const Tensor& delta(std::int64_t layer, std::int64_t bit_index) const;

  /// Single-layer losses L(w + Δw_m^(i)) for all (i, m): [I][|B|],
  /// measured once and cached. Each worker measures whole layers, claimed
  /// in ascending order, on its own replica, as full_matrix does, so the
  /// losses are bit-identical at any worker count. A loss still non-finite
  /// on re-measurement throws and the singles stay unmeasured.
  const std::vector<std::vector<double>>& single_losses();

  /// Layer-specific sensitivities Ω_ii (the diagonal of Ĝ): [I][|B|].
  std::vector<std::vector<double>> diagonal_sensitivities();

  /// Full sensitivity matrix Ĝ (Eq. 10), raw (no PSD projection).
  /// `progress` (optional) is called with (done_pairs, total_pairs) roughly
  /// every 256 pair measurements and at completion; after an internally
  /// retried failure `done` may regress to the last committed row.
  ///
  /// `num_threads` workers (0 = CLADO_NUM_THREADS / hardware) sweep
  /// disjoint layer rows i concurrently, each on its own thread (the
  /// calling thread runs one), Model::clone() replica and plan. Rows are
  /// claimed heaviest-first (ascending i), so the workers finish together.
  /// Every Ĝ entry is written exactly once by the worker owning its row
  /// with the same Eq. (13) arithmetic, so the result is bit-identical at
  /// any thread count, and stats() counts the same measurements.
  ///
  /// Fault tolerance: a non-finite measured loss is re-measured once (the
  /// forward is deterministic, so a transient corruption disappears and a
  /// persistent one is a real error); a sweep pass that still fails is
  /// retried up to two more times on fresh workers, re-measuring only
  /// uncommitted rows.
  /// With checkpointing enabled (set_checkpoint, or the
  /// CLADO_CHECKPOINT_DIR / CLADO_CHECKPOINT_STRIDE environment
  /// variables), completed rows additionally survive process death and a
  /// rerun resumes bit-identically. Exceptions thrown by `progress` are
  /// treated as cancellation and never retried.
  Tensor full_matrix(const std::function<void(std::int64_t, std::int64_t)>& progress = {},
                     int num_threads = 0);

  /// Overrides checkpointing for this engine. An explicit config wins over
  /// the environment; an explicit empty `dir` forces checkpointing off
  /// even when CLADO_CHECKPOINT_DIR is set.
  void set_checkpoint(SweepCheckpointConfig config) { checkpoint_ = std::move(config); }

  /// MPQCO-style Gauss–Newton proxy: per-(layer, bit) mean squared layer
  /// output perturbation ‖X_i Δw‖²/N. Forward-only and much cheaper than
  /// the full sweep (the "5–10 minutes" baseline of §5.2).
  std::vector<std::vector<double>> mpqco_proxy();

  const SensitivityStats& stats() const { return stats_; }

  /// The sensitivity set this engine measures on.
  const Batch& batch() const { return batch_; }

  std::int64_t num_layers() const { return model_.num_quant_layers(); }
  std::int64_t num_bits() const {
    return static_cast<std::int64_t>(model_.candidate_bits.size());
  }

 private:
  /// Collects committed rows into Ĝ and mirrors them to the checkpoint
  /// file; defined in the .cpp (drags in serialization otherwise).
  struct SweepSink;

  /// One measuring thread's replica and plan; defined in the .cpp.
  struct Worker;

  /// Loss of `worker`'s replica as weighted now, its plan run from
  /// `layer`'s first step, counted into the worker's stats. The first run
  /// of a unit starts earlier when the worker's previous unit left earlier
  /// steps perturbed; those catch-up steps go to the obs counter
  /// "sensitivity.catchup_steps", never into the stats. A non-finite loss
  /// is re-measured once, then reported via std::runtime_error.
  double eval_loss(Worker& worker, std::int64_t layer) const;

  /// Runs body(worker) on `workers` fresh workers, one per thread (the
  /// calling thread runs the first), adds their counters to stats_ and,
  /// after every thread joined, rethrows the first failure.
  void run_workers(int workers, const std::function<void(Worker&)>& body);

  /// Single-loss worker: claims layers i in ascending order from
  /// `next_layer` and measures L(w + Δw_m^(i)) for every bit into
  /// losses[i].
  void measure_singles(Worker& worker, std::atomic<std::int64_t>& next_layer,
                       std::vector<std::vector<double>>& losses) const;

  /// Off-diagonal sweep worker: claims rows i in ascending order (heaviest
  /// first) from `next_row`, skips rows the sink already holds (resume /
  /// retry passes), measures all pairs (i, j > i) into a local buffer, and
  /// commits each row atomically to the sink. `report(pairs)` is invoked at
  /// every j-loop boundary with the pairs finished since the previous call.
  void sweep_rows(Worker& worker, SweepSink& sink, std::atomic<std::int64_t>& next_row,
                  const std::function<void(std::int64_t)>& report) const;

  /// Measures the singles on resolve(num_threads) workers unless cached.
  void ensure_single_losses(int num_threads);

  Model& model_;
  Batch batch_;
  int num_threads_ = 0;  // single_losses() workers; 0 = CLADO_NUM_THREADS / hardware
  double base_loss_ = 0.0;
  std::int64_t plan_steps_ = 0;          // steps of a worker's plan
  std::vector<std::size_t> first_step_;  // [I] plan step first reading layer i
  std::vector<std::vector<Tensor>> quantized_;  // [I][|B|] quantized weights Q(w, b)
  std::vector<std::vector<Tensor>> deltas_;     // [I][|B|] Q(w, b) − w
  std::vector<std::vector<double>> single_losses_;
  bool singles_done_ = false;
  std::optional<SweepCheckpointConfig> checkpoint_;  // nullopt = use env
  SensitivityStats stats_;
};

/// Assembles the flat Ĝ index of (layer i, bit index m): |B|·i + m.
inline std::int64_t flat_index(std::int64_t i, std::int64_t m, std::int64_t num_bits) {
  return i * num_bits + m;
}

/// Zeroes cross-layer entries between layers in different blocks (the
/// BRECQ-style ablation of Figure 6). `block_of[i]` maps a layer to its
/// block id.
Tensor mask_inter_block(const Tensor& g_matrix, const std::vector<int>& block_of,
                        std::int64_t num_bits);

/// Keeps only the diagonal (the CLADO* ablation of Table 1).
Tensor keep_diagonal(const Tensor& g_matrix);

}  // namespace clado::core
