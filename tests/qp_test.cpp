#include "clado/solver/qp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "clado/linalg/eigen.h"
#include "clado/linalg/matrix.h"
#include "clado/tensor/ops.h"
#include "clado/tensor/rng.h"

namespace clado::solver {
namespace {

using clado::tensor::Rng;
using clado::tensor::Tensor;

Tensor random_psd(std::int64_t n, Rng& rng, float diag_boost = 0.5F) {
  const Tensor a = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  clado::tensor::gemm(false, true, n, n, n, 1.0F, a.data(), a.data(), 0.0F, out.data());
  for (std::int64_t i = 0; i < n; ++i) out.at({i, i}) += diag_boost;
  return out;
}

QuadraticProblem random_problem(std::size_t groups, std::size_t choices, Rng& rng,
                                double budget_slack = 1.5) {
  QuadraticProblem p;
  const auto n = static_cast<std::int64_t>(groups * choices);
  p.G = random_psd(n, rng);
  p.cost.resize(groups);
  double min_cost = 0.0;
  for (auto& g : p.cost) {
    double cheapest = 1e18;
    for (std::size_t m = 0; m < choices; ++m) {
      g.push_back(rng.uniform(0.2, 2.0));
      cheapest = std::min(cheapest, g.back());
    }
    min_cost += cheapest;
  }
  p.budget = min_cost * budget_slack;
  return p;
}

/// Dense G·x, and per row the scale Σ_j |G_ij·x_j| its rounding error is
/// relative to.
void dense_gx(const QuadraticProblem& p, const std::vector<double>& x, std::vector<double>& gx,
              std::vector<double>& scale) {
  const auto n = static_cast<std::int64_t>(x.size());
  gx.assign(x.size(), 0.0);
  scale.assign(x.size(), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const double term = static_cast<double>(p.G.at({i, j})) * x[static_cast<std::size_t>(j)];
      gx[static_cast<std::size_t>(i)] += term;
      scale[static_cast<std::size_t>(i)] += std::abs(term);
    }
  }
}

TEST(QuadraticProblem, ValidationAndAccessors) {
  QuadraticProblem p;
  p.G = Tensor({4, 4});
  p.cost = {{1.0, 2.0}, {1.0, 2.0}};
  p.budget = 3.0;
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.total_choices(), 4);
  EXPECT_EQ(p.num_groups(), 2);
  EXPECT_EQ(p.offsets(), (std::vector<std::int64_t>{0, 2, 4}));

  p.G = Tensor({3, 3});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(QuadraticProblem, IntegerObjectiveAndCost) {
  QuadraticProblem p;
  p.G = Tensor({4, 4});
  // G = I: objective of any one-hot pair = 2 (two diagonal entries).
  for (std::int64_t i = 0; i < 4; ++i) p.G.at({i, i}) = 1.0F;
  p.cost = {{1.0, 2.0}, {3.0, 4.0}};
  p.budget = 10.0;
  EXPECT_DOUBLE_EQ(p.integer_objective({0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(p.integer_cost({0, 1}), 5.0);
  // Add a cross term between (g0, c0) and (g1, c1).
  p.G.at({0, 3}) = 2.0F;
  p.G.at({3, 0}) = 2.0F;
  EXPECT_DOUBLE_EQ(p.integer_objective({0, 1}), 6.0);
}

TEST(FrankWolfe, SolvesUnconstrainedSimplexCase) {
  // One group, diagonal G = diag(g): min Σ g_i x_i² over the simplex has
  // the closed form x_i ∝ 1/g_i with optimum 1 / Σ (1/g_i).
  QuadraticProblem p;
  p.G = Tensor({3, 3});
  p.G.at({0, 0}) = 3.0F;
  p.G.at({1, 1}) = 0.5F;
  p.G.at({2, 2}) = 2.0F;
  p.cost = {{1.0, 1.0, 1.0}};
  p.budget = 2.0;
  FwOptions opts;
  opts.max_iters = 2000;
  const auto res = frank_wolfe(p, opts);
  ASSERT_TRUE(res.feasible);
  const double inv_sum = 1.0 / 3.0 + 2.0 + 0.5;
  EXPECT_NEAR(res.x[0], (1.0 / 3.0) / inv_sum, 2e-2);
  EXPECT_NEAR(res.x[1], 2.0 / inv_sum, 2e-2);
  EXPECT_NEAR(res.x[2], 0.5 / inv_sum, 2e-2);
  EXPECT_NEAR(res.objective, 1.0 / inv_sum, 1e-3);
}

TEST(FrankWolfe, ObjectiveDecreasesBelowWarmStart) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = random_problem(5, 3, rng);
    const auto res = frank_wolfe(p, {});
    ASSERT_TRUE(res.feasible);
    EXPECT_TRUE(std::isfinite(res.objective));
    EXPECT_GE(res.objective, -1e-6);  // PSD objective is nonnegative
  }
}

TEST(FrankWolfe, LowerBoundIsValidForIntegerSolutions) {
  // For PSD G the FW dual bound must not exceed the best integer value.
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = random_problem(4, 3, rng);
    const auto res = frank_wolfe(p, {});
    ASSERT_TRUE(res.feasible);
    // Enumerate integer assignments.
    double best = 1e18;
    std::vector<int> choice(4, 0);
    while (true) {
      if (p.integer_cost(choice) <= p.budget) {
        best = std::min(best, p.integer_objective(choice));
      }
      std::size_t g = 0;
      while (g < 4 && ++choice[g] == 3) {
        choice[g] = 0;
        ++g;
      }
      if (g == 4) break;
    }
    EXPECT_LE(res.lower_bound, best + 1e-5) << "trial " << trial;
  }
}

TEST(FrankWolfe, SolutionStaysInPolytope) {
  Rng rng(3);
  const auto p = random_problem(6, 3, rng, 1.3);
  const auto res = frank_wolfe(p, {});
  ASSERT_TRUE(res.feasible);
  double cost = 0.0;
  std::size_t k = 0;
  for (std::size_t g = 0; g < p.cost.size(); ++g) {
    double sum = 0.0;
    for (std::size_t m = 0; m < p.cost[g].size(); ++m, ++k) {
      EXPECT_GE(res.x[k], -1e-9);
      EXPECT_LE(res.x[k], 1.0 + 1e-9);
      sum += res.x[k];
      cost += res.x[k] * p.cost[g][m];
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  EXPECT_LE(cost, p.budget + 1e-6);
}

TEST(FrankWolfe, InfeasibleBudgetReported) {
  QuadraticProblem p;
  p.G = Tensor({2, 2});
  p.cost = {{5.0, 6.0}};
  p.budget = 1.0;
  EXPECT_FALSE(frank_wolfe(p, {}).feasible);
}

TEST(FrankWolfe, RespectsAllowedMask) {
  QuadraticProblem p;
  p.G = Tensor({2, 2});
  p.G.at({0, 0}) = 0.1F;  // better choice...
  p.G.at({1, 1}) = 5.0F;
  p.cost = {{1.0, 1.0}};
  p.budget = 2.0;
  std::vector<std::vector<char>> allowed = {{0, 1}};  // ...is masked out
  const auto res = frank_wolfe(p, {}, allowed);
  ASSERT_TRUE(res.feasible);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
}

TEST(FrankWolfe, RejectsZeroIterations) {
  Rng rng(5);
  const auto p = random_problem(4, 3, rng);
  FwOptions opts;
  opts.max_iters = 0;
  EXPECT_THROW(frank_wolfe(p, opts), std::invalid_argument);
  opts.max_iters = 1;
  opts.gap_tol = -1.0;
  EXPECT_THROW(frank_wolfe(p, opts), std::invalid_argument);
}

TEST(FrankWolfe, MaintainedGradientStaysExactOverLongRuns) {
  // g = G·x is updated, never recomputed; a gap tolerance of 0 keeps FW
  // stepping for the whole budget, the worst case for drift.
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const auto p = random_problem(10, 4, rng, 1.3);
    FwOptions opts;
    opts.max_iters = 2000;
    opts.gap_tol = 0.0;
    const auto res = frank_wolfe(p, opts);
    ASSERT_TRUE(res.feasible);
    std::vector<double> gx, scale;
    dense_gx(p, res.x, gx, scale);
    for (std::size_t i = 0; i < gx.size(); ++i) {
      EXPECT_NEAR(res.gx[i], gx[i], 1e-12 * scale[i]) << "trial " << trial << " row " << i;
    }
    double f = 0.0;
    for (std::size_t i = 0; i < gx.size(); ++i) f += res.x[i] * gx[i];
    EXPECT_NEAR(res.objective, f, 1e-12 * std::max(1.0, std::abs(f))) << "trial " << trial;
  }
}

TEST(FrankWolfe, GapConvergesOnEasyProblem) {
  Rng rng(4);
  const auto p = random_problem(5, 3, rng, 2.0);
  FwOptions opts;
  opts.max_iters = 400;
  const auto res = frank_wolfe(p, opts);
  ASSERT_TRUE(res.feasible);
  // Frank–Wolfe converges O(1/k); expect a modest but real gap closure.
  EXPECT_LE(res.objective - res.lower_bound,
            2e-2 * std::max(1.0, std::abs(res.objective)));
}

}  // namespace
}  // namespace clado::solver
