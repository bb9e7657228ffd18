#include "clado/core/search_baseline.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "clado/data/synthcv.h"
#include "clado/models/model.h"
#include "clado/nn/loss.h"
#include "clado/quant/quantizer.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"

namespace clado::core {

namespace {

using clado::data::Batch;
using clado::models::Model;
using clado::tensor::Rng;
using clado::tensor::Tensor;
using Clock = std::chrono::steady_clock;

/// Shared evaluation machinery: precomputed quantized weights per
/// (layer, bit) so a candidate evaluation is weight-swap + forward.
class CandidateEvaluator {
 public:
  CandidateEvaluator(Model& model, const Batch& batch)
      : model_(model), batch_(batch) {
    model_.net->set_training(false);
    const auto layers = static_cast<std::size_t>(model.num_quant_layers());
    quantized_.resize(layers);
    costs_.resize(layers);
    originals_.reserve(layers);
    for (std::size_t i = 0; i < layers; ++i) {
      const Tensor& w = model.quant_layers[i].layer->weight_param().value;
      originals_.push_back(w);
      for (int b : model.candidate_bits) {
        quantized_[i].push_back(clado::quant::quantize_weight(w, b, model.scheme));
        costs_[i].push_back(clado::quant::weight_bytes(w.numel(), b));
      }
    }
  }

  ~CandidateEvaluator() { restore(); }
  CandidateEvaluator(const CandidateEvaluator&) = delete;
  CandidateEvaluator& operator=(const CandidateEvaluator&) = delete;

  double cost(const std::vector<int>& choice) const {
    double bytes = 0.0;
    for (std::size_t i = 0; i < choice.size(); ++i) {
      bytes += costs_[i][static_cast<std::size_t>(choice[i])];
    }
    return bytes;
  }

  double min_cost() const {
    double bytes = 0.0;
    for (const auto& row : costs_) bytes += *std::min_element(row.begin(), row.end());
    return bytes;
  }

  /// Bakes the candidate and measures the sensitivity-set loss.
  double evaluate(const std::vector<int>& choice) {
    for (std::size_t i = 0; i < choice.size(); ++i) {
      model_.quant_layers[i].layer->weight_param().value =
          quantized_[i][static_cast<std::size_t>(choice[i])];
    }
    const double loss =
        clado::nn::cross_entropy(model_.net->forward(batch_.images), batch_.labels);
    restore();
    return loss;
  }

  /// Random feasible candidate: uniform picks repaired toward the cheapest
  /// choice until the budget holds.
  std::vector<int> random_feasible(double budget, Rng& rng) const {
    const std::size_t layers = costs_.size();
    std::vector<int> choice(layers);
    for (std::size_t i = 0; i < layers; ++i) {
      choice[i] = static_cast<int>(rng.uniform_int(costs_[i].size()));
    }
    repair(choice, budget, rng);
    return choice;
  }

  /// Greedily lowers random layers until the candidate fits the budget.
  void repair(std::vector<int>& choice, double budget, Rng& rng) const {
    double bytes = cost(choice);
    int guard = 0;
    while (bytes > budget && guard++ < 10000) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(choice.size()));
      std::size_t cheapest = 0;
      for (std::size_t m = 1; m < costs_[i].size(); ++m) {
        if (costs_[i][m] < costs_[i][cheapest]) cheapest = m;
      }
      if (static_cast<std::size_t>(choice[i]) == cheapest) continue;
      bytes -= costs_[i][static_cast<std::size_t>(choice[i])] - costs_[i][cheapest];
      choice[i] = static_cast<int>(cheapest);
    }
  }

  const std::vector<std::vector<double>>& costs() const { return costs_; }

 private:
  void restore() {
    for (std::size_t i = 0; i < originals_.size(); ++i) {
      model_.quant_layers[i].layer->weight_param().value = originals_[i];
    }
  }

  Model& model_;
  const Batch& batch_;
  std::vector<std::vector<Tensor>> quantized_;
  std::vector<std::vector<double>> costs_;
  std::vector<Tensor> originals_;
};

SearchResult finish(const Model& model, const CandidateEvaluator& eval,
                    std::vector<int> choice, double loss, std::int64_t evaluations,
                    Clock::time_point t0) {
  SearchResult res;
  res.choice = std::move(choice);
  res.loss = loss;
  res.evaluations = evaluations;
  res.bytes = eval.cost(res.choice);
  for (int c : res.choice) res.bits.push_back(model.candidate_bits[static_cast<std::size_t>(c)]);
  res.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  res.feasible = true;
  return res;
}

}  // namespace

SearchResult random_search(Model& model, const Batch& batch, double target_bytes,
                           const SearchOptions& options) {
  const auto t0 = Clock::now();
  CandidateEvaluator eval(model, batch);
  if (eval.min_cost() > target_bytes) return {};

  Rng rng(options.seed);
  std::vector<int> best;
  double best_loss = std::numeric_limits<double>::infinity();
  for (std::int64_t e = 0; e < options.max_evaluations; ++e) {
    std::vector<int> cand = eval.random_feasible(target_bytes, rng);
    const double loss = eval.evaluate(cand);
    if (loss < best_loss) {
      best_loss = loss;
      best = std::move(cand);
    }
  }
  return finish(model, eval, std::move(best), best_loss, options.max_evaluations, t0);
}

SearchResult evolutionary_search(Model& model, const Batch& batch, double target_bytes,
                                 const SearchOptions& options) {
  const auto t0 = Clock::now();
  CandidateEvaluator eval(model, batch);
  if (eval.min_cost() > target_bytes) return {};
  if (options.population < 2) throw std::invalid_argument("evolutionary_search: population >= 2");

  Rng rng(options.seed);
  struct Individual {
    std::vector<int> choice;
    double loss;
  };
  std::vector<Individual> population;
  std::int64_t evaluations = 0;

  for (int p = 0; p < options.population && evaluations < options.max_evaluations; ++p) {
    Individual ind;
    ind.choice = eval.random_feasible(target_bytes, rng);
    ind.loss = eval.evaluate(ind.choice);
    ++evaluations;
    population.push_back(std::move(ind));
  }
  auto better = [](const Individual& a, const Individual& b) { return a.loss < b.loss; };

  while (evaluations < options.max_evaluations) {
    // Tournament parent selection.
    auto pick = [&]() -> const Individual& {
      const auto& a = population[rng.uniform_int(population.size())];
      const auto& b = population[rng.uniform_int(population.size())];
      return a.loss < b.loss ? a : b;
    };
    const Individual& pa = pick();
    const Individual& pb = pick();

    // Uniform crossover + per-layer mutation + repair.
    Individual child;
    child.choice.resize(pa.choice.size());
    for (std::size_t i = 0; i < child.choice.size(); ++i) {
      child.choice[i] = (rng.uniform() < 0.5 ? pa : pb).choice[i];
      if (rng.uniform() < options.mutation_rate) {
        child.choice[i] = static_cast<int>(rng.uniform_int(model.candidate_bits.size()));
      }
    }
    eval.repair(child.choice, target_bytes, rng);
    child.loss = eval.evaluate(child.choice);
    ++evaluations;

    // Replace the worst individual if the child improves on it.
    auto worst = std::max_element(population.begin(), population.end(),
                                  [&](const Individual& a, const Individual& b) {
                                    return better(a, b);
                                  });
    if (child.loss < worst->loss) *worst = std::move(child);
  }

  auto best = std::min_element(population.begin(), population.end(), better);
  return finish(model, eval, best->choice, best->loss, evaluations, t0);
}

}  // namespace clado::core
