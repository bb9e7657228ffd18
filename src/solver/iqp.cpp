#include "clado/solver/iqp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"

namespace clado::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Incremental evaluation state: selected flat index per group and
/// row-sum vector r[i] = Σ_h G[i][sel_h].
struct IncrementalEval {
  const QuadraticProblem* problem;
  std::int64_t n = 0;
  std::vector<std::int64_t> offsets;
  std::vector<std::int64_t> sel;
  std::vector<double> rowsum;
  double objective = 0.0;
  double cost = 0.0;

  void reset(const QuadraticProblem& p, const std::vector<int>& choice) {
    problem = &p;
    offsets = p.offsets();
    n = offsets.back();
    sel.clear();
    for (std::size_t g = 0; g < p.cost.size(); ++g) sel.push_back(flat_index(g, choice[g]));
    rowsum.assign(static_cast<std::size_t>(n), 0.0);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* row = p.G.data() + i * n;
      double acc = 0.0;
      for (std::int64_t s : sel) acc += row[s];
      rowsum[static_cast<std::size_t>(i)] = acc;
    }
    objective = 0.0;
    for (std::int64_t s : sel) objective += rowsum[static_cast<std::size_t>(s)];
    cost = p.integer_cost(choice);
  }

  /// Flat index of group g's choice m.
  std::int64_t flat_index(std::size_t g, int m) const { return offsets[g] + m; }

  /// Objective delta of moving group g from its current flat choice to
  /// flat index b (G symmetric).
  double move_delta(std::size_t g, std::int64_t b) const {
    const std::int64_t a = sel[g];
    if (a == b) return 0.0;
    const double gaa = problem->G.data()[a * n + a];
    const double gbb = problem->G.data()[b * n + b];
    const double gab = problem->G.data()[a * n + b];
    // rowsum includes the contribution of a itself; remove it to get the
    // cross term against the other groups.
    const double cross_a = rowsum[static_cast<std::size_t>(a)] - gaa;
    const double cross_b = rowsum[static_cast<std::size_t>(b)] - gab;
    return gbb - gaa + 2.0 * (cross_b - cross_a);
  }

  void apply_move(std::size_t g, int m_new, double dcost) {
    const std::int64_t a = sel[g];
    const std::int64_t b = flat_index(g, m_new);
    objective += move_delta(g, b);
    cost += dcost;
    for (std::int64_t i = 0; i < n; ++i) {
      rowsum[static_cast<std::size_t>(i)] +=
          problem->G.data()[i * n + b] - problem->G.data()[i * n + a];
    }
    sel[g] = b;
  }
};

bool allowed_at(const std::vector<std::vector<char>>& allowed, std::size_t g, std::size_t m) {
  if (allowed.empty()) return true;
  return allowed[g][m] != 0;
}

}  // namespace

const char* solution_source_name(SolutionSource source) {
  switch (source) {
    case SolutionSource::kIqp: return "iqp";
    case SolutionSource::kMckpDp: return "mckp_dp";
    case SolutionSource::kMckpGreedy: return "mckp_greedy";
    case SolutionSource::kUniform: return "uniform";
    case SolutionSource::kAnneal: return "anneal";
  }
  return "unknown";
}

double local_search_1opt(const QuadraticProblem& problem, std::vector<int>& choice,
                         const std::vector<std::vector<char>>& allowed, int max_passes) {
  IncrementalEval eval;
  eval.reset(problem, choice);
  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (std::size_t g = 0; g < problem.cost.size(); ++g) {
      const int current = choice[g];
      int best_m = current;
      double best_delta = -1e-12;  // require strict improvement
      for (std::size_t m = 0; m < problem.cost[g].size(); ++m) {
        if (static_cast<int>(m) == current || !allowed_at(allowed, g, m)) continue;
        const double dcost = problem.cost[g][m] - problem.cost[g][static_cast<std::size_t>(current)];
        if (eval.cost + dcost > problem.budget + 1e-9) continue;
        const double delta = eval.move_delta(g, eval.flat_index(g, static_cast<int>(m)));
        if (delta < best_delta) {
          best_delta = delta;
          best_m = static_cast<int>(m);
        }
      }
      if (best_m != current) {
        const double dcost =
            problem.cost[g][static_cast<std::size_t>(best_m)] -
            problem.cost[g][static_cast<std::size_t>(current)];
        eval.apply_move(g, best_m, dcost);
        choice[g] = best_m;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return eval.objective;
}

namespace {

/// A search node: the choice each group is fixed to, −1 where free.
struct Node {
  std::vector<int> fixed;
  double parent_bound;
};

/// Rounds the relaxed point into a feasible integer incumbent: integer
/// greedy on the gradient at x (captures curvature), then 1-opt. The
/// gradient is FW's maintained G·x; the greedy reads it without the ×2,
/// which leaves its choices unchanged.
bool round_to_incumbent(const QuadraticProblem& p, FrankWolfe& fw, const FwResult& relax,
                        std::vector<int>& choice, double& objective) {
  if (!fw.oracle().solve_greedy(relax.gx.data(), p.budget, choice.data()).feasible) return false;
  objective = local_search_1opt(p, choice);
  return true;
}

}  // namespace

IqpResult solve_iqp(const QuadraticProblem& problem, const IqpOptions& options) {
  problem.validate();
  options.fw.validate();
  clado::obs::Span solve_span("solver/iqp");
  const auto t_start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start).count();
  };

  const std::vector<std::int64_t> off = problem.offsets();
  const std::size_t groups = problem.cost.size();
  FrankWolfe fw(problem);
  std::vector<char> mask(static_cast<std::size_t>(off.back()));
  std::vector<int> cand(groups);
  std::vector<std::pair<double, int>> order;

  IqpResult result;
  std::vector<Node> stack;
  stack.push_back({std::vector<int>(groups, -1), -kInf});

  double incumbent = kInf;
  std::vector<int> incumbent_choice;
  double open_bound_min = kInf;  // min bound among nodes discarded by limits

  while (!stack.empty()) {
    if (result.nodes >= options.max_nodes || elapsed() > options.time_limit_sec) {
      result.hit_limit = true;
      for (const auto& node : stack) open_bound_min = std::min(open_bound_min, node.parent_bound);
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++result.nodes;
    // Injection seam for the degradation chain: a "solver oracle failure"
    // surfaces here, where a real relaxation-oracle defect would.
    clado::fault::maybe_throw(clado::fault::Site::kSolverOracle,
                              "iqp: branch-and-bound oracle failure");

    if (options.objective_convex && node.parent_bound >= incumbent - options.abs_tol) {
      ++result.pruned;  // parent bound already prunes this subtree
      continue;
    }

    for (std::size_t g = 0; g < groups; ++g) {
      for (std::int64_t i = off[g]; i < off[g + 1]; ++i) {
        mask[static_cast<std::size_t>(i)] = node.fixed[g] < 0 || node.fixed[g] == i - off[g];
      }
    }
    fw.oracle().set_mask(mask.data());
    const FwResult& relax = fw.run(options.fw);
    // Oracle accounting: frank_wolfe makes one greedy warm-start call plus
    // one LP call per iteration; rounding below adds one more greedy call.
    result.oracle_calls += 1 + relax.iterations;
    if (!relax.feasible) continue;
    const double bound = options.objective_convex ? relax.lower_bound : -kInf;
    if (bound >= incumbent - options.abs_tol) {
      ++result.pruned;
      continue;
    }

    double cand_obj = 0.0;
    ++result.oracle_calls;
    if (round_to_incumbent(problem, fw, relax, cand, cand_obj)) {
      if (cand_obj < incumbent) {
        incumbent = cand_obj;
        incumbent_choice = cand;
        ++result.incumbent_updates;
      }
    }

    // Find the most fractional of the groups that can still branch (fixed
    // and single-choice groups sit at exactly 1).
    std::size_t branch_group = groups;
    double worst_intness = kInf;
    for (std::size_t g = 0; g < groups; ++g) {
      if (node.fixed[g] >= 0 || off[g + 1] - off[g] < 2) continue;
      double mx = 0.0;
      for (std::int64_t i = off[g]; i < off[g + 1]; ++i) {
        mx = std::max(mx, relax.x[static_cast<std::size_t>(i)]);
      }
      if (mx < worst_intness) {
        worst_intness = mx;
        branch_group = g;
      }
    }
    if (branch_group == groups) continue;  // x is the node's only point
    if (worst_intness > 1.0 - 1e-7 && (relax.converged || !options.objective_convex)) {
      // Relaxation is integral: its objective equals the bound; the
      // incumbent update above already captured it (rounding at an
      // integral x reproduces x). Nothing to branch on. An integral x at
      // which FW ran out of iterations proves nothing, so that node
      // branches like a fractional one.
      continue;
    }

    // Children: fix branch_group to each allowed choice, most promising
    // (largest relaxed weight) explored first => push in ascending order.
    const std::int64_t goff = off[branch_group];
    order.clear();
    for (std::int64_t i = goff; i < off[branch_group + 1]; ++i) {
      if (mask[static_cast<std::size_t>(i)] == 0) continue;
      order.emplace_back(relax.x[static_cast<std::size_t>(i)], static_cast<int>(i - goff));
    }
    std::sort(order.begin(), order.end());  // ascending; top of stack = best
    for (const auto& [weight, m] : order) {
      Node child{node.fixed, bound};
      child.fixed[branch_group] = m;
      stack.push_back(std::move(child));
    }
  }

  result.seconds = elapsed();
  if (incumbent < kInf) {
    result.feasible = true;
    result.choice = incumbent_choice;
    result.objective = incumbent;
    result.best_bound = result.hit_limit ? std::min(open_bound_min, incumbent) : incumbent;
    result.proven_optimal = !result.hit_limit && options.objective_convex;
    result.status = result.proven_optimal ? IqpStatus::kOptimal : IqpStatus::kFeasible;
  } else {
    // No incumbent: a completed search proves infeasibility (bounds only
    // prune against an incumbent, so nothing feasible was cut), while a
    // limit stop proves nothing — the caller may want a degraded solver.
    result.status = result.hit_limit ? IqpStatus::kLimitNoIncumbent : IqpStatus::kInfeasible;
  }
  // Bulk-publish the search statistics; per-node atomic traffic would cost
  // in the hot loop, a single add per solve does not.
  clado::obs::counter("solver.iqp.solves").add();
  clado::obs::counter("solver.iqp.nodes").add(result.nodes);
  clado::obs::counter("solver.iqp.pruned").add(result.pruned);
  clado::obs::counter("solver.iqp.incumbent_updates").add(result.incumbent_updates);
  clado::obs::counter("solver.iqp.oracle_calls").add(result.oracle_calls);
  clado::obs::gauge("solver.iqp.bound_gap").set(result.gap());
  return result;
}

IqpResult solve_iqp_brute_force(const QuadraticProblem& problem) {
  problem.validate();
  IqpResult result;
  const std::size_t n = problem.cost.size();
  std::vector<int> choice(n, 0);
  double best = kInf;
  while (true) {
    if (problem.integer_cost(choice) <= problem.budget + 1e-12) {
      const double obj = problem.integer_objective(choice);
      ++result.nodes;
      if (obj < best) {
        best = obj;
        result.choice = choice;
        result.feasible = true;
      }
    }
    std::size_t g = 0;
    while (g < n) {
      if (++choice[g] < static_cast<int>(problem.cost[g].size())) break;
      choice[g] = 0;
      ++g;
    }
    if (g == n) break;
  }
  result.objective = best;
  result.best_bound = best;
  result.proven_optimal = result.feasible;
  result.status = result.feasible ? IqpStatus::kOptimal : IqpStatus::kInfeasible;
  return result;
}

}  // namespace clado::solver
