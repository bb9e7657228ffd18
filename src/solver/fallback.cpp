// solve_with_fallback — the solver tier of the fault-tolerant pipeline.
//
// The exact branch-and-bound solver can fail two ways: an exception out of
// its oracle machinery (exercised in tests through the solver_oracle fault
// site) or a node/time limit reached before any incumbent exists. Either
// way the pipeline still needs *some* feasible bit assignment — a degraded
// answer with known provenance beats an aborted run. The chain degrades
// through solvers that keep working with less structure:
//
//   IQP B&B  →  MCKP DP over diag(Ĝ)  →  MCKP greedy  →  uniform bits
//
// The DP/greedy tiers drop the cross-layer terms (exactly the CLADO*
// diagonal ablation of Table 1), so they optimize a proxy; the reported
// objective is nevertheless always the true quadratic one.
#include "clado/solver/iqp.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "clado/obs/obs.h"
#include "clado/solver/mckp.h"

namespace clado::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Separable proxy of the quadratic objective: per-choice values from the
/// diagonal of Ĝ (the Ω_ii sensitivities), costs copied verbatim.
std::vector<ChoiceGroup> diagonal_groups(const QuadraticProblem& p) {
  const std::vector<std::int64_t> off = p.offsets();
  const std::int64_t n = off.back();
  std::vector<ChoiceGroup> groups(p.cost.size());
  for (std::size_t g = 0; g < p.cost.size(); ++g) {
    groups[g].cost = p.cost[g];
    groups[g].value.resize(p.cost[g].size());
    for (std::size_t m = 0; m < p.cost[g].size(); ++m) {
      const std::int64_t a = off[g] + static_cast<std::int64_t>(m);
      groups[g].value[m] = static_cast<double>(p.G.data()[a * n + a]);
    }
  }
  return groups;
}

IqpResult from_choice(const QuadraticProblem& p, std::vector<int> choice,
                      SolutionSource source) {
  IqpResult r;
  r.feasible = true;
  r.status = IqpStatus::kFeasible;
  r.source = source;
  r.objective = p.integer_objective(choice);
  r.best_bound = -kInf;  // degraded tiers prove nothing about optimality
  r.choice = std::move(choice);
  clado::obs::counter(std::string("solver.fallback.served.") + solution_source_name(source))
      .add();
  return r;
}

}  // namespace

IqpResult solve_with_fallback(const QuadraticProblem& problem, const IqpOptions& options) {
  problem.validate();
  // A bad option is the caller's error, not a solver failure to degrade past.
  options.fw.validate();

  // Tier 0: the exact solver. A proven-infeasible outcome also returns
  // here — when the search completes and finds nothing, no cheaper tier
  // can find anything either (they search subsets of the same space).
  bool limit_no_incumbent = false;
  try {
    IqpResult exact = solve_iqp(problem, options);
    if (exact.feasible || exact.status == IqpStatus::kInfeasible) return exact;
    limit_no_incumbent = true;
    clado::obs::counter("solver.fallback.iqp_no_incumbent").add();
  } catch (const std::exception&) {
    clado::obs::counter("solver.fallback.iqp_failures").add();
  }

  const std::vector<ChoiceGroup> groups = diagonal_groups(problem);

  // Tier 1: exact DP on the separable diagonal proxy.
  try {
    MckpSolution dp = solve_mckp_dp(groups, problem.budget);
    if (dp.feasible) return from_choice(problem, std::move(dp.choice), SolutionSource::kMckpDp);
  } catch (const std::exception&) {
    clado::obs::counter("solver.fallback.mckp_dp_failures").add();
  }

  // Tier 2: greedy repair on the same proxy (no cost grid, no allocation
  // proportional to the bucket count — survives instances that break DP).
  try {
    MckpSolution greedy = solve_mckp_greedy(groups, problem.budget);
    if (greedy.feasible) {
      return from_choice(problem, std::move(greedy.choice), SolutionSource::kMckpGreedy);
    }
  } catch (const std::exception&) {
    clado::obs::counter("solver.fallback.mckp_greedy_failures").add();
  }

  // Tier 3: uniform assignments — the same choice index in every group
  // (for MPQ instances: one bitwidth everywhere). Pick the feasible one
  // with the best true objective.
  std::size_t min_choices = std::numeric_limits<std::size_t>::max();
  for (const auto& group_cost : problem.cost) {
    min_choices = std::min(min_choices, group_cost.size());
  }
  std::vector<int> best_uniform;
  double best_obj = kInf;
  for (std::size_t m = 0; problem.cost.empty() ? false : m < min_choices; ++m) {
    const std::vector<int> choice(problem.cost.size(), static_cast<int>(m));
    if (problem.integer_cost(choice) > problem.budget + 1e-12) continue;
    const double obj = problem.integer_objective(choice);
    if (obj < best_obj) {
      best_obj = obj;
      best_uniform = choice;
    }
  }
  if (!best_uniform.empty()) {
    return from_choice(problem, std::move(best_uniform), SolutionSource::kUniform);
  }

  // Every tier failed: the instance is genuinely infeasible (not even the
  // cheapest per-group choices fit), unless the exact solver merely ran
  // out of budget — preserve that distinction for the caller.
  IqpResult none;
  none.status = limit_no_incumbent ? IqpStatus::kLimitNoIncumbent : IqpStatus::kInfeasible;
  clado::obs::counter("solver.fallback.exhausted").add();
  return none;
}

}  // namespace clado::solver
