#include "clado/solver/qp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "clado/tensor/check.h"

namespace clado::solver {

std::int64_t QuadraticProblem::total_choices() const {
  std::int64_t n = 0;
  for (const auto& g : cost) n += static_cast<std::int64_t>(g.size());
  return n;
}

std::vector<std::int64_t> QuadraticProblem::offsets() const {
  std::vector<std::int64_t> off(cost.size() + 1, 0);
  for (std::size_t g = 0; g < cost.size(); ++g) {
    off[g + 1] = off[g] + static_cast<std::int64_t>(cost[g].size());
  }
  return off;
}

void QuadraticProblem::validate() const {
  const std::int64_t n = total_choices();
  if (G.dim() != 2 || G.size(0) != n || G.size(1) != n) {
    throw std::invalid_argument("QuadraticProblem: G must be [n, n] with n = total choices");
  }
  for (const auto& g : cost) {
    if (g.empty()) throw std::invalid_argument("QuadraticProblem: empty group");
  }
  if (budget < 0.0) throw std::invalid_argument("QuadraticProblem: negative budget");
  CLADO_CHECK(std::isfinite(budget), "QuadraticProblem: budget must be finite");
#if defined(CLADO_ENABLE_CHECKS) || !defined(NDEBUG)
  // A NaN/Inf entry in the sensitivity matrix poisons every bound and move
  // delta downstream; catch it at the solver boundary where it is cheap to
  // name. O(n^2) but compiled out in plain Release.
  for (std::int64_t i = 0; i < n * n; ++i) {
    CLADO_CHECK(std::isfinite(G.data()[i]),
                "QuadraticProblem: objective matrix G must be finite");
  }
  for (const auto& g : cost) {
    for (double c : g) CLADO_CHECK(std::isfinite(c), "QuadraticProblem: costs must be finite");
  }
#endif
}

double QuadraticProblem::integer_objective(const std::vector<int>& choice) const {
  const std::int64_t n = total_choices();
  std::vector<std::int64_t> idx;
  idx.reserve(choice.size());
  std::int64_t off = 0;
  for (std::size_t g = 0; g < cost.size(); ++g) {
    idx.push_back(off + choice[g]);
    off += static_cast<std::int64_t>(cost[g].size());
  }
  double acc = 0.0;
  for (std::int64_t a : idx) {
    for (std::int64_t b : idx) acc += G.data()[a * n + b];
  }
  return acc;
}

double QuadraticProblem::integer_cost(const std::vector<int>& choice) const {
  double acc = 0.0;
  for (std::size_t g = 0; g < cost.size(); ++g) {
    acc += cost[g][static_cast<std::size_t>(choice[g])];
  }
  return acc;
}

void FwOptions::validate() const {
  if (max_iters < 1) {
    throw std::invalid_argument("FwOptions: max_iters must be >= 1 (got " +
                                std::to_string(max_iters) +
                                "); without an LP step there is no bound");
  }
  if (!(gap_tol >= 0.0)) throw std::invalid_argument("FwOptions: gap_tol must be >= 0");
}

namespace {

/// out += w · (row j of G), which is column j as G is symmetric.
void add_row(const Tensor& g_mat, std::size_t j, double w, std::vector<double>& out) {
  const std::size_t n = out.size();
  const float* row = g_mat.data() + j * n;
  for (std::size_t i = 0; i < n; ++i) out[i] += w * static_cast<double>(row[i]);
}

}  // namespace

FrankWolfe::FrankWolfe(const QuadraticProblem& problem)
    : problem_(&problem), offsets_(problem.offsets()), oracle_(problem.cost) {
  const auto n = static_cast<std::size_t>(offsets_.back());
  diag_.resize(n);
  for (std::size_t i = 0; i < n; ++i) diag_[i] = problem.G.data()[i * n + i];
  choice_.resize(problem.cost.size());
  s_.resize(n);
  gs_.resize(n);
}

const FwResult& FrankWolfe::run(const FwOptions& options) {
  options.validate();
  const QuadraticProblem& p = *problem_;
  const auto n = static_cast<std::size_t>(offsets_.back());
  FwResult& res = result_;
  res.objective = 0.0;
  res.lower_bound = 0.0;
  res.iterations = 0;
  res.converged = false;
  res.feasible = false;

  // Warm start: integer greedy on the diagonal (always feasible when the
  // instance is).
  if (!oracle_.solve_greedy(diag_.data(), p.budget, choice_.data()).feasible) {
    res.x.clear();
    res.gx.clear();
    return res;  // infeasible node
  }
  std::vector<double>& x = res.x;
  std::vector<double>& gx = res.gx;
  x.assign(n, 0.0);
  gx.assign(n, 0.0);
  for (std::size_t g = 0; g < choice_.size(); ++g) {
    const auto j = static_cast<std::size_t>(offsets_[g] + choice_[g]);
    x[j] = 1.0;
    add_row(p.G, j, 1.0, gx);
  }
  double f = 0.0;
  for (std::size_t i = 0; i < n; ++i) f += x[i] * gx[i];
  double best_lb = -std::numeric_limits<double>::infinity();

  int it = 0;
  for (; it < options.max_iters; ++it) {
    // The oracle's choices are invariant under the exact ×2 of the
    // gradient 2·g, so it reads g directly.
    // Cannot fail once the warm start fit: the LP has the same base.
    if (!oracle_.solve_lp(gx.data(), p.budget, s_.data()).feasible) break;
    std::fill(gs_.begin(), gs_.end(), 0.0);
    for (const std::int64_t j : oracle_.support()) {
      add_row(p.G, static_cast<std::size_t>(j), s_[static_cast<std::size_t>(j)], gs_);
    }
    // With d = s − x: xgd = xᵀGd and dgd = dᵀGd, as G·d = G·s − g.
    double xgd = 0.0, dgd = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = s_[i] - x[i];
      xgd += gx[i] * d;
      dgd += d * (gs_[i] - gx[i]);
    }

    // FW duality gap and dual bound: f + ∇fᵀ(s − x) <= f* for convex f.
    const double gap = -2.0 * xgd;
    best_lb = std::max(best_lb, f - gap);
    if (gap <= options.gap_tol * std::max(1.0, std::abs(f))) {
      res.converged = true;
      ++it;
      break;
    }

    // Exact line search for the quadratic objective: f(x + t d) is
    // minimized at t* = −(xᵀGd) / (dᵀGd).
    double t = 1.0;
    if (dgd > 1e-18) {
      t = std::clamp(-xgd / dgd, 0.0, 1.0);
    } else {
      // Non-convex direction (only without PSD projection): jump to the
      // vertex if it improves.
      t = (xgd + dgd <= 0.0) ? 1.0 : 0.0;
    }
    if (t == 0.0) break;
    f = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += t * (s_[i] - x[i]);
      gx[i] += t * (gs_[i] - gx[i]);
      f += x[i] * gx[i];
    }
  }

  res.objective = f;
  res.lower_bound = best_lb;
  res.iterations = it;
  res.feasible = true;
  return res;
}

FwResult frank_wolfe(const QuadraticProblem& problem, const FwOptions& options,
                     const std::vector<std::vector<char>>& allowed) {
  problem.validate();
  FrankWolfe fw(problem);
  fw.oracle().set_mask(allowed);
  return fw.run(options);
}

}  // namespace clado::solver
