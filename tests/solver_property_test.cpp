// Property sweeps over the solver stack at realistic MPQ sizes: these are
// the guarantees the pipeline's correctness rests on, checked across many
// random instances (TEST_P over seeds).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "clado/solver/anneal.h"
#include "clado/solver/iqp.h"
#include "clado/solver/mckp.h"
#include "clado/tensor/ops.h"
#include "clado/tensor/rng.h"

namespace clado::solver {
namespace {

using clado::tensor::Rng;
using clado::tensor::Tensor;

Tensor random_psd(std::int64_t n, Rng& rng) {
  const Tensor a = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  clado::tensor::gemm(false, true, n, n, n, 1.0F, a.data(), a.data(), 0.0F, out.data());
  return out;
}

QuadraticProblem random_problem(std::size_t groups, std::size_t choices, Rng& rng,
                                double slack) {
  QuadraticProblem p;
  p.G = random_psd(static_cast<std::int64_t>(groups * choices), rng);
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
  p.budget = min_cost * slack;
  return p;
}

class SeededSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(SeededSolverTest, BranchAndBoundIsExactOnSmallInstances) {
  Rng rng(100 + GetParam());
  const auto p = random_problem(6, 3, rng, 1.0 + 0.1 * (GetParam() % 7));
  const auto exact = solve_iqp_brute_force(p);
  const auto bb = solve_iqp(p);
  ASSERT_EQ(bb.feasible, exact.feasible);
  if (exact.feasible) {
    EXPECT_NEAR(bb.objective, exact.objective,
                1e-4 * std::max(1.0, std::abs(exact.objective)));
  }
}

TEST_P(SeededSolverTest, BoundNeverExceedsIncumbentAtScale) {
  // At paper scale (I=16..25, |B|=3) brute force is impossible; check the
  // internal consistency instead: the reported global bound must be a true
  // lower bound on the returned objective, and the result proven optimal.
  Rng rng(200 + GetParam());
  const auto p = random_problem(12, 3, rng, 1.3);
  const auto bb = solve_iqp(p);
  ASSERT_TRUE(bb.feasible);
  EXPECT_LE(bb.best_bound, bb.objective + 1e-6);
  EXPECT_TRUE(bb.proven_optimal);
  EXPECT_LE(p.integer_cost(bb.choice), p.budget + 1e-9);
}

TEST_P(SeededSolverTest, LocalSearchCannotImproveBnbSolution) {
  Rng rng(300 + GetParam());
  const auto p = random_problem(10, 3, rng, 1.4);
  const auto bb = solve_iqp(p);
  ASSERT_TRUE(bb.feasible);
  std::vector<int> refined = bb.choice;
  const double after = local_search_1opt(p, refined);
  EXPECT_GE(after, bb.objective - 1e-5 * std::max(1.0, std::abs(bb.objective)));
}

TEST_P(SeededSolverTest, AnnealNeverBeatsProvenOptimum) {
  Rng rng(400 + GetParam());
  const auto p = random_problem(8, 3, rng, 1.5);
  const auto bb = solve_iqp(p);
  AnnealOptions opts;
  opts.seed = static_cast<std::uint64_t>(GetParam());
  const auto heur = solve_anneal(p, opts);
  ASSERT_TRUE(bb.feasible);
  ASSERT_TRUE(heur.feasible);
  EXPECT_GE(heur.objective, bb.objective - 1e-5 * std::max(1.0, std::abs(bb.objective)));
}

TEST_P(SeededSolverTest, MckpDpNeverWorseThanGreedy) {
  Rng rng(500 + GetParam());
  std::vector<ChoiceGroup> groups(12);
  double min_cost = 0.0;
  for (auto& g : groups) {
    double cheapest = 1e18;
    for (int m = 0; m < 3; ++m) {
      g.value.push_back(rng.uniform(-1.0, 1.0));
      g.cost.push_back(rng.uniform(0.2, 2.0));
      cheapest = std::min(cheapest, g.cost.back());
    }
    min_cost += cheapest;
  }
  const double budget = min_cost * 1.4;
  const auto dp = solve_mckp_dp(groups, budget);
  const auto greedy = solve_mckp_greedy(groups, budget);
  ASSERT_TRUE(dp.feasible);
  ASSERT_TRUE(greedy.feasible);
  EXPECT_LE(dp.value, greedy.value + 1e-6);
}

TEST_P(SeededSolverTest, MckpLpBoundsDp) {
  Rng rng(600 + GetParam());
  std::vector<ChoiceGroup> groups(10);
  double min_cost = 0.0;
  for (auto& g : groups) {
    double cheapest = 1e18;
    for (int m = 0; m < 4; ++m) {
      g.value.push_back(rng.uniform(-1.0, 1.0));
      g.cost.push_back(rng.uniform(0.2, 2.0));
      cheapest = std::min(cheapest, g.cost.back());
    }
    min_cost += cheapest;
  }
  const double budget = min_cost * 1.6;
  const auto lp = solve_mckp_lp(groups, budget);
  const auto dp = solve_mckp_dp(groups, budget);
  ASSERT_TRUE(lp.feasible);
  ASSERT_TRUE(dp.feasible);
  EXPECT_LE(lp.value, dp.value + 1e-6);
}

TEST_P(SeededSolverTest, FrankWolfeUnderRandomMasksKeepsExactGradientAndValidBound) {
  // Branch-and-bound nodes are masks; at FW exit under any mask the
  // maintained G·x must equal a dense recomputation, and the dual bound
  // must not exceed the best masked integer assignment.
  Rng rng(800 + GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const auto p = random_problem(6, 3, rng, 1.0 + 0.15 * (trial % 5));
    std::vector<std::vector<char>> allowed(6, std::vector<char>(3, 0));
    for (auto& group : allowed) {
      for (auto& a : group) a = rng.uniform(0.0, 1.0) < 0.6 ? 1 : 0;
      group[rng.uniform_int(3)] = 1;
    }
    FwOptions opts;
    opts.max_iters = trial % 2 == 0 ? 200 : 1 + static_cast<int>(rng.uniform_int(20));

    double best = std::numeric_limits<double>::infinity();
    std::vector<int> choice(6, 0);
    while (true) {
      bool ok = p.integer_cost(choice) <= p.budget;
      for (std::size_t g = 0; g < 6; ++g) ok = ok && allowed[g][static_cast<std::size_t>(choice[g])];
      if (ok) best = std::min(best, p.integer_objective(choice));
      std::size_t g = 0;
      while (g < 6 && ++choice[g] == 3) choice[g++] = 0;
      if (g == 6) break;
    }

    const auto res = frank_wolfe(p, opts, allowed);
    if (!std::isfinite(best)) continue;  // mask leaves nothing within budget
    ASSERT_TRUE(res.feasible) << "trial " << trial;
    const auto n = static_cast<std::int64_t>(res.x.size());
    for (std::int64_t i = 0; i < n; ++i) {
      double dense = 0.0, scale = 0.0;
      for (std::int64_t j = 0; j < n; ++j) {
        const double term = static_cast<double>(p.G.at({i, j})) * res.x[static_cast<std::size_t>(j)];
        dense += term;
        scale += std::abs(term);
      }
      EXPECT_NEAR(res.gx[static_cast<std::size_t>(i)], dense, 1e-12 * scale)
          << "trial " << trial << " row " << i;
    }
    EXPECT_LE(res.lower_bound, best + 1e-9 * std::max(1.0, std::abs(best))) << "trial " << trial;
  }
}

TEST_P(SeededSolverTest, BudgetMonotonicity) {
  // Enlarging the budget can only improve (reduce) the optimal objective.
  Rng rng(700 + GetParam());
  auto p = random_problem(8, 3, rng, 1.1);
  const auto tight = solve_iqp(p);
  p.budget *= 1.5;
  const auto loose = solve_iqp(p);
  ASSERT_TRUE(tight.feasible);
  ASSERT_TRUE(loose.feasible);
  EXPECT_LE(loose.objective, tight.objective + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededSolverTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace clado::solver
