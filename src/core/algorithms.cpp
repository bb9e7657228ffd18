#include "clado/core/algorithms.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "clado/linalg/eigen.h"
#include "clado/linalg/matrix.h"
#include "clado/nn/hvp.h"
#include "clado/quant/qat.h"
#include "clado/quant/quantizer.h"
#include "clado/solver/mckp.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/serialize.h"
#include "clado/tensor/tensor.h"

namespace clado::core {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kHawq: return "HAWQ";
    case Algorithm::kMpqco: return "MPQCO";
    case Algorithm::kCladoStar: return "CLADO*";
    case Algorithm::kClado: return "CLADO";
    case Algorithm::kBrecqBlock: return "BRECQ-block";
  }
  return "?";
}

MpqPipeline::MpqPipeline(Model& model, Batch sensitivity_batch, PipelineOptions options)
    : model_(model),
      options_(options),
      engine_(model, std::move(sensitivity_batch), options.sweep_threads) {}

const Tensor& MpqPipeline::clado_matrix_raw() {
  if (!g_raw_) {
    std::function<void(std::int64_t, std::int64_t)> progress;
    if (options_.verbose) {
      progress = [](std::int64_t done, std::int64_t total) {
        // clado-lint: allow(no-stdio) -- opt-in verbose progress meter on stderr
        std::fprintf(stderr, "\r[sensitivity] %lld / %lld pair measurements",
                     static_cast<long long>(done), static_cast<long long>(total));
        // clado-lint: allow(no-stdio) -- opt-in verbose progress meter on stderr
        if (done == total) std::fprintf(stderr, "\n");
      };
    }
    g_raw_ = engine_.full_matrix(progress, options_.sweep_threads);
  }
  return *g_raw_;
}

const Tensor& MpqPipeline::clado_matrix() {
  if (!g_psd_) {
    const Tensor& raw = clado_matrix_raw();
    g_psd_ = options_.psd_projection ? clado::linalg::psd_projection(raw)
                                     : clado::linalg::symmetrize(raw);
  }
  return *g_psd_;
}

void MpqPipeline::save_sensitivities(const std::string& path) {
  clado::tensor::StateDict dict;
  dict.emplace("g_raw", clado_matrix_raw());
  dict.emplace("meta", Tensor({3}, std::vector<float>{
                                       static_cast<float>(engine_.num_layers()),
                                       static_cast<float>(engine_.num_bits()),
                                       static_cast<float>(engine_.base_loss())}));
  clado::tensor::save_state_dict(dict, path);
}

void MpqPipeline::load_sensitivities(const std::string& path) {
  const auto dict = clado::tensor::load_state_dict(path);
  const auto meta_it = dict.find("meta");
  const auto g_it = dict.find("g_raw");
  if (meta_it == dict.end() || g_it == dict.end()) {
    throw std::runtime_error("load_sensitivities: not a sensitivity file: " + path);
  }
  const Tensor& meta = meta_it->second;
  if (meta.numel() != 3 ||
      static_cast<std::int64_t>(meta[0]) != engine_.num_layers() ||
      static_cast<std::int64_t>(meta[1]) != engine_.num_bits()) {
    throw std::runtime_error("load_sensitivities: layer/bit structure mismatch in " + path);
  }
  const std::int64_t n = engine_.num_layers() * engine_.num_bits();
  if (g_it->second.shape() != clado::tensor::Shape{n, n}) {
    throw std::runtime_error("load_sensitivities: matrix shape mismatch in " + path);
  }
  g_raw_ = g_it->second;
  g_psd_.reset();
}

const std::vector<std::vector<double>>& MpqPipeline::hawq_values() {
  if (!hawq_values_) {
    // HAWQ-V2/V3 sensitivity: mean Hessian trace of the layer block times
    // the squared quantization error. Tr(H_i) is estimated by Hutchinson:
    // E_v[vᵀ H v] with Rademacher v supported on layer i.
    const std::int64_t layers = engine_.num_layers();
    const std::int64_t bits = engine_.num_bits();
    clado::tensor::Rng rng(options_.hawq_seed);
    std::vector<std::vector<double>> values(
        static_cast<std::size_t>(layers), std::vector<double>(static_cast<std::size_t>(bits)));

    for (std::int64_t i = 0; i < layers; ++i) {
      auto& ref = model_.quant_layers[static_cast<std::size_t>(i)];
      auto& weight = ref.layer->weight_param();
      const std::int64_t numel = weight.value.numel();

      double trace_est = 0.0;
      for (int probe = 0; probe < options_.hawq_probes; ++probe) {
        clado::nn::LayerDirection dir;
        dir.weight = &weight;
        dir.delta = Tensor(weight.value.shape());
        for (auto& v : dir.delta.flat()) v = rng.uniform() < 0.5 ? -1.0F : 1.0F;
        trace_est += clado::nn::exact_vhv(*model_.net, engine_.batch().images,
                                          engine_.batch().labels, {dir}, options_.hvp_step);
      }
      trace_est /= static_cast<double>(options_.hawq_probes);
      const double mean_trace = trace_est / static_cast<double>(numel);

      for (std::int64_t m = 0; m < bits; ++m) {
        const double err_sq = engine_.delta(i, m).sq_norm();
        values[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] = mean_trace * err_sq;
      }
    }
    hawq_values_ = std::move(values);
  }
  return *hawq_values_;
}

const std::vector<std::vector<double>>& MpqPipeline::mpqco_values() {
  if (!mpqco_values_) mpqco_values_ = engine_.mpqco_proxy();
  return *mpqco_values_;
}

std::vector<std::vector<double>> MpqPipeline::size_costs() const {
  std::vector<std::vector<double>> costs;
  costs.reserve(model_.quant_layers.size());
  for (const auto& ref : model_.quant_layers) {
    const std::int64_t numel = ref.layer->weight_param().value.numel();
    std::vector<double> row;
    row.reserve(model_.candidate_bits.size());
    for (int b : model_.candidate_bits) {
      row.push_back(clado::quant::weight_bytes(numel, b));
    }
    costs.push_back(std::move(row));
  }
  return costs;
}

std::vector<int> MpqPipeline::block_ids() const {
  std::vector<int> ids;
  ids.reserve(model_.quant_layers.size());
  for (const auto& ref : model_.quant_layers) ids.push_back(ref.stage);
  return ids;
}

Assignment MpqPipeline::finish(Algorithm algorithm, std::vector<int> choice,
                               const std::vector<std::vector<double>>& costs, double budget,
                               double predicted) {
  Assignment a;
  a.algorithm = algorithm;
  a.choice = std::move(choice);
  a.predicted = predicted;
  a.target_bytes = budget;
  a.bits.reserve(a.choice.size());
  for (std::size_t i = 0; i < a.choice.size(); ++i) {
    a.bits.push_back(model_.candidate_bits[static_cast<std::size_t>(a.choice[i])]);
    a.bytes += costs[i][static_cast<std::size_t>(a.choice[i])];
  }
  if (a.bytes > budget + 1e-6) {
    throw std::logic_error("MpqPipeline: solver returned an infeasible assignment");
  }
  return a;
}

Assignment MpqPipeline::from_separable(Algorithm algorithm,
                                       const std::vector<std::vector<double>>& value,
                                       const std::vector<std::vector<double>>& costs,
                                       double budget) {
  std::vector<clado::solver::ChoiceGroup> groups(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    groups[i].value = value[i];
    groups[i].cost = costs[i];
  }
  const auto sol = clado::solver::solve_mckp_dp(groups, budget);
  if (!sol.feasible) {
    throw std::runtime_error(std::string(algorithm_name(algorithm)) +
                             ": budget infeasible (below the cheapest per-layer choices)");
  }
  return finish(algorithm, sol.choice, costs, budget, sol.value);
}

Assignment MpqPipeline::from_quadratic(Algorithm algorithm, const Tensor& g_matrix,
                                       const std::vector<std::vector<double>>& costs,
                                       double budget) {
  clado::solver::QuadraticProblem problem;
  problem.G = g_matrix;
  problem.cost = costs;
  problem.budget = budget;

  clado::solver::IqpOptions iqp = options_.iqp;
  iqp.objective_convex = options_.psd_projection;
  // The degradation chain absorbs a thrown or incumbent-starved B&B, so a
  // solver failure yields a usable (if degraded) assignment with its
  // provenance recorded instead of an aborted pipeline.
  const auto result = clado::solver::solve_with_fallback(problem, iqp);

  Assignment a;
  const bool iqp_native =
      result.feasible && result.source == clado::solver::SolutionSource::kIqp;
  if (iqp_native && (!result.hit_limit || options_.psd_projection)) {
    a = finish(algorithm, result.choice, costs, budget, result.objective);
    a.used_fallback = false;
    a.solver_source = result.source;
  } else if (iqp_native || !options_.psd_projection) {
    // Indefinite objective and the B&B degenerated: annealing fallback
    // (this is the regime the PSD ablation demonstrates).
    clado::solver::AnnealOptions anneal;
    anneal.seed = options_.hawq_seed;
    const auto heur = clado::solver::solve_anneal(problem, anneal);
    if (!heur.feasible) {
      throw std::runtime_error(std::string(algorithm_name(algorithm)) +
                               ": budget infeasible");
    }
    a = finish(algorithm, heur.choice, costs, budget, heur.objective);
    a.used_fallback = true;
    a.solver_source = clado::solver::SolutionSource::kAnneal;
  } else if (result.feasible) {
    // Convex regime but the B&B itself failed; the chain's degraded tier
    // already produced a feasible assignment under the true budget.
    a = finish(algorithm, result.choice, costs, budget, result.objective);
    a.used_fallback = true;
    a.solver_source = result.source;
  } else {
    throw std::runtime_error(std::string(algorithm_name(algorithm)) +
                             ": budget infeasible");
  }
  a.solver_nodes = result.nodes;
  a.solver_seconds = result.seconds;
  a.proven_optimal = result.proven_optimal;
  return a;
}

Assignment MpqPipeline::assign(Algorithm algorithm, double target_bytes) {
  const auto costs = size_costs();
  switch (algorithm) {
    case Algorithm::kHawq:
      return from_separable(algorithm, hawq_values(), costs, target_bytes);
    case Algorithm::kMpqco:
      return from_separable(algorithm, mpqco_values(), costs, target_bytes);
    case Algorithm::kCladoStar:
      return from_separable(algorithm, engine_.diagonal_sensitivities(), costs, target_bytes);
    case Algorithm::kClado:
      return from_quadratic(algorithm, clado_matrix(), costs, target_bytes);
    case Algorithm::kBrecqBlock: {
      const Tensor masked =
          mask_inter_block(clado_matrix_raw(), block_ids(), engine_.num_bits());
      const Tensor prepared = options_.psd_projection ? clado::linalg::psd_projection(masked)
                                                      : clado::linalg::symmetrize(masked);
      return from_quadratic(algorithm, prepared, costs, target_bytes);
    }
  }
  throw std::logic_error("MpqPipeline::assign: unknown algorithm");
}

std::unique_ptr<clado::quant::WeightSnapshot> MpqPipeline::apply_ptq(
    const Assignment& assignment) {
  auto snapshot = std::make_unique<clado::quant::WeightSnapshot>(model_.quant_layers);
  clado::quant::bake_weights(model_.quant_layers, assignment.bits, model_.scheme);
  return snapshot;
}

}  // namespace clado::core
