// Continuous relaxation machinery for the IQP: Frank–Wolfe over the
// multiple-choice-knapsack polytope.
//
// The relaxed feasible set of Eq. (11) is
//   { x >= 0, per-group sums = 1, Σ cost·x <= budget },
// whose linear-minimization oracle is the exact MCKP LP (mckp.h). For a
// PSD objective the Frank–Wolfe duality gap yields valid lower bounds,
// which is what makes branch-and-bound exact (mirroring the role of the
// convex QP relaxation inside Gurobi in the paper's setup).
#pragma once

#include <cstdint>
#include <vector>

#include "clado/solver/mckp.h"
#include "clado/tensor/tensor.h"

namespace clado::solver {

using clado::tensor::Tensor;

/// min xᵀGx over the relaxed multiple-choice knapsack polytope.
struct QuadraticProblem {
  Tensor G;                               ///< [n, n] symmetric objective
  std::vector<std::vector<double>> cost;  ///< cost[g][m], flat size == n
  double budget = 0.0;

  std::int64_t total_choices() const;
  std::int64_t num_groups() const { return static_cast<std::int64_t>(cost.size()); }
  /// Flat offsets: group g's choices are [offsets()[g], offsets()[g + 1]).
  /// O(groups); solvers compute them once per solve.
  std::vector<std::int64_t> offsets() const;
  /// Validates shape consistency; throws std::invalid_argument.
  void validate() const;

  /// Objective of an integer assignment (choice index per group).
  double integer_objective(const std::vector<int>& choice) const;
  /// Total cost of an integer assignment.
  double integer_cost(const std::vector<int>& choice) const;
};

struct FwOptions {
  int max_iters = 200;    ///< >= 1: the dual bound comes from the LP steps
  double gap_tol = 1e-8;  ///< stop when duality gap <= gap_tol * max(1, |f|)
  /// Throws std::invalid_argument when max_iters < 1 (no LP step, hence no
  /// dual bound) or gap_tol is negative or NaN.
  void validate() const;
};

struct FwResult {
  std::vector<double> x;      ///< flat relaxed solution (empty if infeasible)
  std::vector<double> gx;     ///< G·x at x, maintained incrementally (gradient = 2·gx)
  double objective = 0.0;
  double lower_bound = 0.0;   ///< best FW dual bound (valid when G is PSD)
  int iterations = 0;
  bool converged = false;     ///< stopped on the gap test, not on max_iters
  bool feasible = false;
};

/// Frank–Wolfe bound to one problem and reusable across masks (the
/// branch-and-bound runs one per solve). It keeps g = G·x current instead
/// of recomputing it: the LP vertex s has at most groups + 1 nonzeros, so
/// G·s is a sum of that many rows of the symmetric G, each step updates
/// g ← g + t·(G·s − g), and the line search and objective are inner
/// products with g. An iteration costs O(n·(groups + 1)) plus one LP
/// oracle call and allocates nothing.
class FrankWolfe {
 public:
  /// `problem` must be valid (QuadraticProblem::validate) and outlive this.
  explicit FrankWolfe(const QuadraticProblem& problem);

  /// The LP / greedy oracle over the problem's costs. Its mask is the
  /// feasible set run() optimizes over.
  MckpOracle& oracle() { return oracle_; }

  /// Runs Frank–Wolfe from a feasible integer warm start (greedy on
  /// diag(G)) under the oracle's current mask. The result is overwritten by
  /// the next run.
  const FwResult& run(const FwOptions& options);

 private:
  const QuadraticProblem* problem_;
  std::vector<std::int64_t> offsets_;
  MckpOracle oracle_;
  std::vector<double> diag_;
  std::vector<int> choice_;
  std::vector<double> s_;   // LP vertex
  std::vector<double> gs_;  // G·s
  FwResult result_;
};

/// One Frank–Wolfe run (FrankWolfe::run). `allowed` masks choices per
/// group (empty = all allowed).
FwResult frank_wolfe(const QuadraticProblem& problem, const FwOptions& options,
                     const std::vector<std::vector<char>>& allowed = {});

}  // namespace clado::solver
