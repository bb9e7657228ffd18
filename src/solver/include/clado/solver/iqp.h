// Branch-and-bound Integer Quadratic Program solver for Eq. (11):
//   min αᵀ Ĝ α   s.t. one-hot groups, Σ size(i,m)·α_im <= C_target.
//
// Node bounds come from the Frank–Wolfe convex relaxation (qp.h); with a
// PSD Ĝ (Algorithm 1's projection step) the bounds are valid and the
// search is exact up to tolerance. Incumbents come from rounding the
// relaxed point followed by 1-opt local search. Without PSD the bounds are
// declared invalid (options.objective_convex = false) and the solver
// degenerates to a node-limited heuristic — reproducing the paper's
// "solver unable to converge" ablation (§7, Figure 7).
#pragma once

#include <cstdint>
#include <vector>

#include "clado/solver/qp.h"

namespace clado::solver {

struct IqpOptions {
  std::int64_t max_nodes = 20000;
  FwOptions fw;
  double abs_tol = 1e-9;        ///< prune when bound >= incumbent − tol
  double time_limit_sec = 120.0;
  bool objective_convex = true; ///< false disables bound-based pruning
};

/// Termination classification. The two infeasible-looking outcomes are
/// deliberately distinct: kInfeasible means the search finished and proved
/// no assignment fits the budget (no fallback can help), while
/// kLimitNoIncumbent means the solver ran out of nodes/time before finding
/// any incumbent — the instance may well be feasible, so a degraded solver
/// (solve_with_fallback) should take over.
enum class IqpStatus {
  kOptimal,           ///< incumbent proven optimal
  kFeasible,          ///< incumbent found, optimality not proven
  kInfeasible,        ///< search completed: no feasible assignment exists
  kLimitNoIncumbent,  ///< node/time limit hit before any incumbent
};

/// Which tier of the degradation chain produced the returned assignment;
/// benches report this so a silently degraded run is visible.
enum class SolutionSource {
  kIqp,         ///< branch-and-bound (optimal or limit-truncated)
  kMckpDp,      ///< diagonal (separable) MCKP dynamic program
  kMckpGreedy,  ///< diagonal MCKP greedy repair
  kUniform,     ///< best feasible uniform bit assignment
  kAnneal,      ///< simulated annealing (set by the pipeline's indefinite-
                ///< objective regime, never by solve_with_fallback)
};

const char* solution_source_name(SolutionSource source);

struct IqpResult {
  std::vector<int> choice;      ///< per-group selected index (empty if infeasible)
  double objective = 0.0;
  double best_bound = 0.0;      ///< global lower bound at termination
  std::int64_t nodes = 0;
  std::int64_t pruned = 0;            ///< subtrees cut by parent/relaxation bounds
  std::int64_t incumbent_updates = 0; ///< times rounding improved the incumbent
  std::int64_t oracle_calls = 0;      ///< MCKP LP/greedy oracle invocations
  bool feasible = false;
  bool proven_optimal = false;
  bool hit_limit = false;       ///< node or time limit reached
  IqpStatus status = IqpStatus::kInfeasible;
  SolutionSource source = SolutionSource::kIqp;
  double seconds = 0.0;

  /// Absolute optimality gap at termination (0 when proven optimal).
  /// +inf for fallback-produced results, whose best_bound is -inf (the
  /// degraded tiers prove nothing about the quadratic objective).
  double gap() const {
    return feasible ? objective - best_bound : 0.0;
  }
};

IqpResult solve_iqp(const QuadraticProblem& problem, const IqpOptions& options = {});

/// Degradation chain wrapping solve_iqp: when branch-and-bound throws (an
/// injected solver fault, a real oracle failure) or stops at its limits
/// with no incumbent, falls back to the exact separable MCKP DP over
/// diag(Ĝ), then MCKP greedy, then the best feasible uniform assignment —
/// so any instance where the cheapest uniform assignment fits the budget
/// yields a usable result instead of an exception. `source` records the
/// tier that produced the assignment (the objective is always the true
/// quadratic objective, whatever the tier optimized); a proven-infeasible
/// instance is returned unchanged. Fallback results carry
/// best_bound = -inf: the degraded tiers provide no optimality guarantee.
IqpResult solve_with_fallback(const QuadraticProblem& problem, const IqpOptions& options = {});

/// 1-opt local search: repeatedly moves single groups to a better feasible
/// choice until no move improves. Refines `choice` in place; returns the
/// final objective. Used internally and exposed for the annealer/tests.
double local_search_1opt(const QuadraticProblem& problem, std::vector<int>& choice,
                         const std::vector<std::vector<char>>& allowed = {},
                         int max_passes = 50);

/// Exhaustive enumeration (tests only; exponential).
IqpResult solve_iqp_brute_force(const QuadraticProblem& problem);

}  // namespace clado::solver
