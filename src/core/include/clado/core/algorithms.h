// The five MPQ algorithms of the paper's evaluation, driven by one
// pipeline so they share quantizers, sensitivity sets, and size accounting:
//
//   kHawq       HAWQ-V3-style: Hutchinson Hessian-trace per layer ×
//               ‖Δw‖² → separable objective → exact multiple-choice
//               knapsack (ILP equivalent).
//   kMpqco      MPQCO-style: Gauss–Newton layer-output proxy ‖X_i Δw‖²/N
//               → separable objective → exact MCKP.
//   kCladoStar  CLADO with cross-layer terms removed (Table 1 ablation).
//   kClado      full CLADO: Ĝ via Algorithm 1, PSD projection, IQP (Eq. 11)
//               by branch-and-bound.
//   kBrecqBlock CLADO restricted to intra-block interactions (Figure 6
//               ablation, following BRECQ's block-diagonal assumption).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clado/core/sensitivity.h"
#include "clado/quant/qat.h"
#include "clado/solver/anneal.h"
#include "clado/solver/iqp.h"

namespace clado::core {

enum class Algorithm { kHawq, kMpqco, kCladoStar, kClado, kBrecqBlock };

const char* algorithm_name(Algorithm a);

struct PipelineOptions {
  bool psd_projection = true;          ///< Algorithm 1's projection step
  clado::solver::IqpOptions iqp;       ///< branch-and-bound budget
  int hawq_probes = 3;                 ///< Hutchinson probes per layer
  std::uint64_t hawq_seed = 7;
  double hvp_step = 1e-2;              ///< finite-difference step for HVPs
  int sweep_threads = 0;               ///< singles + sweep workers; 0 = CLADO_NUM_THREADS/hardware
  bool verbose = false;
};

/// A bit-width assignment plus solver diagnostics.
struct Assignment {
  Algorithm algorithm{};
  std::vector<int> choice;   ///< per-layer index into Model::candidate_bits
  std::vector<int> bits;     ///< per-layer chosen bit-width
  double bytes = 0.0;        ///< realized Σ |w_i| b_i / 8
  double target_bytes = 0.0;
  double predicted = 0.0;    ///< objective value of the proxy being optimized
  std::int64_t solver_nodes = 0;
  double solver_seconds = 0.0;
  bool proven_optimal = false;
  bool used_fallback = false;  ///< a non-B&B tier produced the assignment
  /// Which solver tier produced `choice` (benches report this so a
  /// degraded run is visible, not silent).
  clado::solver::SolutionSource solver_source = clado::solver::SolutionSource::kIqp;
};

class MpqPipeline {
 public:
  /// `model` must be pretrained and (if desired) activation-calibrated.
  MpqPipeline(Model& model, Batch sensitivity_batch, PipelineOptions options = {});

  /// Computes the bit-width assignment for `algorithm` under the model-size
  /// budget `target_bytes`. Sensitivity measurements are cached across
  /// calls, so sweeping sizes or algorithms reuses them (the reusability
  /// the paper highlights over search-based methods).
  Assignment assign(Algorithm algorithm, double target_bytes);

  /// Applies an assignment destructively to the model's weights (PTQ) and
  /// returns a snapshot for restoration.
  std::unique_ptr<clado::quant::WeightSnapshot> apply_ptq(const Assignment& assignment);

  // -- cached intermediates (exposed for benches/tests) ---------------------
  SensitivityEngine& engine() { return engine_; }
  const Tensor& clado_matrix_raw();
  const Tensor& clado_matrix();  ///< after optional PSD projection

  /// Persists the raw sensitivity matrix (and the base loss) so a later
  /// run can skip the O((|B|I)²) sweep. The file records |B| and I; loading
  /// into a pipeline with a different layer/bit structure throws.
  void save_sensitivities(const std::string& path);
  /// Installs a previously saved matrix as this pipeline's raw Ĝ
  /// (invalidates any derived PSD matrix).
  void load_sensitivities(const std::string& path);
  const std::vector<std::vector<double>>& hawq_values();
  const std::vector<std::vector<double>>& mpqco_values();

  /// Per-layer weight-byte cost at each candidate bit-width.
  std::vector<std::vector<double>> size_costs() const;

  /// Block id per layer used by the BRECQ ablation (top-level stage).
  std::vector<int> block_ids() const;

  Model& model() { return model_; }
  const PipelineOptions& options() const { return options_; }

 private:
  // `costs` is size_costs() and `budget` the target bytes.
  Assignment from_separable(Algorithm algorithm, const std::vector<std::vector<double>>& value,
                            const std::vector<std::vector<double>>& costs, double budget);
  Assignment from_quadratic(Algorithm algorithm, const Tensor& g_matrix,
                            const std::vector<std::vector<double>>& costs, double budget);
  Assignment finish(Algorithm algorithm, std::vector<int> choice,
                    const std::vector<std::vector<double>>& costs, double budget,
                    double predicted);

  Model& model_;
  PipelineOptions options_;
  SensitivityEngine engine_;

  std::optional<Tensor> g_raw_;
  std::optional<Tensor> g_psd_;
  std::optional<std::vector<std::vector<double>>> hawq_values_;
  std::optional<std::vector<std::vector<double>>> mpqco_values_;
};

}  // namespace clado::core
