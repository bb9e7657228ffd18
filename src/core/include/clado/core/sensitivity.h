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
// Cost reduction vs a naive implementation (same measured numbers):
//   * prefix-activation caching — a pair (i, j) with i's stage s_i re-runs
//     only stages >= s_j using the activation tail recorded while layer i
//     alone was perturbed;
//   * quantized weights Q(w, b_m) are computed once per (layer, bit).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
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
/// writes the snapshot back on destruction. The sweep perturbs layer
/// weights in place; the guard makes every mutation site exception-safe
/// (a throwing progress callback or measurement leaves the model clean).
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
  std::int64_t stage_executions = 0;      ///< top-level stages actually run
  std::int64_t stage_executions_naive = 0;///< stages a cache-less sweep would run
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
  /// full_matrix: 0 = tensor::ThreadPool's count).
  SensitivityEngine(Model& model, Batch batch, int num_threads = 0);

  /// L(w): clean loss on the sensitivity set.
  double base_loss() const { return base_loss_; }

  /// Q(w^(i), b_m) − w^(i), precomputed at construction.
  const Tensor& delta(std::int64_t layer, std::int64_t bit_index) const;

  /// Single-layer losses L(w + Δw_m^(i)) for all (i, m): [I][|B|],
  /// measured once and cached. With more than one worker, each worker
  /// measures whole layers on its own Model::clone() replica, as
  /// full_matrix does, so the losses are bit-identical to the serial
  /// ones. A loss still non-finite on re-measurement throws; the weights
  /// are restored and the singles stay unmeasured.
  const std::vector<std::vector<double>>& single_losses();

  /// Layer-specific sensitivities Ω_ii (the diagonal of Ĝ): [I][|B|].
  std::vector<std::vector<double>> diagonal_sensitivities();

  /// Full sensitivity matrix Ĝ (Eq. 10), raw (no PSD projection).
  /// `progress` (optional) is called with (done_pairs, total_pairs) roughly
  /// every 256 pair measurements and at completion; after an internally
  /// retried failure `done` may regress to the last committed row.
  ///
  /// `num_threads` > 1 sweeps disjoint layer rows i concurrently, one
  /// Model::clone() replica per worker; 0 resolves via
  /// tensor::ThreadPool (CLADO_NUM_THREADS / hardware). Every Ĝ entry is
  /// written exactly once by the worker owning its row with the same
  /// Eq. (13) arithmetic as the serial sweep, so the result is
  /// bit-identical at any thread count.
  ///
  /// Fault tolerance: a non-finite measured loss is re-measured once (the
  /// forward is deterministic, so a transient corruption disappears and a
  /// persistent one is a real error); a sweep pass that still fails is
  /// retried up to two more times, re-measuring only uncommitted rows.
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

  /// Tells the engine the model's layer input stashes no longer reflect
  /// the clean weights (e.g. after the pipeline ran HVP probes or a PTQ
  /// forward outside the engine). mpqco_proxy() then rebuilds them.
  void mark_stashes_dirty() { stashes_clean_ = false; }

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

  /// Loss of `model` re-run from stage `stage` with the given input,
  /// counting measurements into `stats`. Parameterized over (model, stats)
  /// so parallel workers evaluate on their own replica with their own
  /// counters; only reads shared state (the batch). A non-finite loss is
  /// re-measured once, then reported via std::runtime_error.
  double eval_loss(Model& model, SensitivityStats& stats, std::size_t stage,
                   const Tensor& input, std::vector<Tensor>* record) const;

  /// Failures of one parallel phase: the first worker's, and a pool-level
  /// one (a worker skipped before its body ran).
  struct ReplicaErrors {
    std::exception_ptr worker;
    std::exception_ptr pool;
  };

  /// Runs body(replica, stats) once on each of `workers` fresh
  /// Model::clone() replicas in parallel, catching the bodies' failures,
  /// and adds every replica's counters to stats_. Both the singles and the
  /// sweep use it; the caller decides which failures to rethrow.
  ReplicaErrors run_on_replicas(int workers,
                                const std::function<void(Model&, SensitivityStats&)>& body);

  /// Single-loss worker: claims layers i from `next_layer` and measures
  /// L(w + Δw_m^(i)) for every bit on `model` into losses[i].
  void measure_singles(Model& model, SensitivityStats& stats,
                       std::atomic<std::int64_t>& next_layer,
                       std::vector<std::vector<double>>& losses) const;

  /// Off-diagonal sweep worker: claims rows i from `next_row`, skips rows
  /// the sink already holds (resume / retry passes), measures all pairs
  /// (i, j > i) on `model` (the primary, or a per-worker replica) into a
  /// local buffer, and commits each row atomically to the sink.
  /// `report(pairs)` is invoked at every j-loop boundary with the pairs
  /// finished since the previous call.
  void sweep_rows(Model& model, SensitivityStats& stats, SweepSink& sink,
                  std::atomic<std::int64_t>& next_row,
                  const std::function<void(std::int64_t)>& report);

  /// Measures the singles on resolve(num_threads) workers unless cached.
  void ensure_single_losses(int num_threads);

  Model& model_;
  Batch batch_;
  int num_threads_ = 0;  // single_losses() workers; 0 = ThreadPool's count
  double base_loss_ = 0.0;
  std::vector<std::vector<Tensor>> quantized_;  // [I][|B|] quantized weights Q(w, b)
  std::vector<std::vector<Tensor>> deltas_;     // [I][|B|] Q(w, b) − w
  std::vector<std::vector<double>> single_losses_;
  bool singles_done_ = false;
  bool stashes_clean_ = false;  // layer input stashes match clean weights
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
