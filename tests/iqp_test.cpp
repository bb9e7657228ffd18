#include "clado/solver/iqp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "clado/fault/fault.h"
#include "clado/solver/anneal.h"
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
                                double budget_slack) {
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
  p.budget = min_cost * budget_slack;
  return p;
}

TEST(LocalSearch, ImprovesOrKeepsObjective) {
  Rng rng(1);
  const auto p = random_problem(6, 3, rng, 1.6);
  std::vector<int> choice(6, 0);
  // Start from each group's cheapest choice (feasible by construction).
  for (std::size_t g = 0; g < 6; ++g) {
    std::size_t cheapest = 0;
    for (std::size_t m = 1; m < 3; ++m) {
      if (p.cost[g][m] < p.cost[g][cheapest]) cheapest = m;
    }
    choice[g] = static_cast<int>(cheapest);
  }
  const double before = p.integer_objective(choice);
  const double after = local_search_1opt(p, choice);
  EXPECT_LE(after, before + 1e-9);
  EXPECT_LE(p.integer_cost(choice), p.budget + 1e-9);
  EXPECT_NEAR(after, p.integer_objective(choice), 1e-6 * std::max(1.0, std::abs(after)));
}

TEST(LocalSearch, ReachesOneOptFixedPoint) {
  Rng rng(2);
  const auto p = random_problem(5, 3, rng, 1.8);
  std::vector<int> choice(5, 0);
  for (std::size_t g = 0; g < 5; ++g) {
    std::size_t cheapest = 0;
    for (std::size_t m = 1; m < 3; ++m) {
      if (p.cost[g][m] < p.cost[g][cheapest]) cheapest = m;
    }
    choice[g] = static_cast<int>(cheapest);
  }
  const double obj = local_search_1opt(p, choice);
  // Verify no single-group move improves.
  for (std::size_t g = 0; g < 5; ++g) {
    for (int m = 0; m < 3; ++m) {
      if (m == choice[g]) continue;
      std::vector<int> alt = choice;
      alt[g] = m;
      if (p.integer_cost(alt) > p.budget + 1e-9) continue;
      EXPECT_GE(p.integer_objective(alt), obj - 1e-6);
    }
  }
}

TEST(Iqp, MatchesBruteForceOnRandomPsdInstances) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const auto p = random_problem(5, 3, rng, 1.1 + 0.15 * (trial % 5));
    const auto exact = solve_iqp_brute_force(p);
    const auto bb = solve_iqp(p);
    ASSERT_EQ(bb.feasible, exact.feasible) << "trial " << trial;
    if (exact.feasible) {
      EXPECT_NEAR(bb.objective, exact.objective,
                  1e-4 * std::max(1.0, std::abs(exact.objective)))
          << "trial " << trial;
      EXPECT_TRUE(bb.proven_optimal) << "trial " << trial;
      EXPECT_LE(p.integer_cost(bb.choice), p.budget + 1e-9);
    }
  }
}

TEST(Iqp, DiagonalObjectiveReducesToMckp) {
  // With a diagonal G the IQP is separable; compare against brute force.
  Rng rng(4);
  QuadraticProblem p;
  const std::int64_t n = 12;
  p.G = Tensor({n, n});
  for (std::int64_t i = 0; i < n; ++i) p.G.at({i, i}) = static_cast<float>(rng.uniform(0.0, 2.0));
  p.cost = {{1, 2, 4}, {1, 2, 4}, {1, 2, 4}, {1, 2, 4}};
  p.budget = 8.0;
  const auto exact = solve_iqp_brute_force(p);
  const auto bb = solve_iqp(p);
  ASSERT_TRUE(bb.feasible);
  EXPECT_NEAR(bb.objective, exact.objective, 1e-6);
}

TEST(Iqp, InfeasibleBudget) {
  QuadraticProblem p;
  p.G = Tensor({2, 2});
  p.cost = {{5.0, 6.0}};
  p.budget = 1.0;
  const auto res = solve_iqp(p);
  EXPECT_FALSE(res.feasible);
}

TEST(Iqp, TightBudgetForcesCheapestAssignment) {
  Rng rng(5);
  auto p = random_problem(4, 3, rng, 1.0);  // budget == min cost
  const auto res = solve_iqp(p);
  ASSERT_TRUE(res.feasible);
  for (std::size_t g = 0; g < 4; ++g) {
    std::size_t cheapest = 0;
    for (std::size_t m = 1; m < 3; ++m) {
      if (p.cost[g][m] < p.cost[g][cheapest]) cheapest = m;
    }
    EXPECT_EQ(res.choice[g], static_cast<int>(cheapest));
  }
}

TEST(Iqp, ZeroFrankWolfeIterationsAreRejected) {
  // With no LP step there is no dual bound. The warm start's objective is
  // an upper bound, and taken as the root's bound it would let the
  // integral warm start close the root with a false proof.
  Rng rng(15);
  const auto p = random_problem(6, 3, rng, 1.3);
  IqpOptions opts;
  opts.fw.max_iters = 0;
  EXPECT_THROW(solve_iqp(p, opts), std::invalid_argument);
  // A bad option is the caller's error: the fallback chain must not hide
  // it behind a degraded assignment.
  EXPECT_THROW(solve_with_fallback(p, opts), std::invalid_argument);
}

TEST(Iqp, ProvenOptimaMatchBruteForceAtLowIterationCaps) {
  // Few FW iterations give weak bounds and may stop FW at an integral
  // point it has not proven optimal; the search must still never call a
  // suboptimal assignment proven.
  for (const int iters : {1, 2}) {
    for (int trial = 0; trial < 200; ++trial) {
      Rng rng(50 + static_cast<std::uint64_t>(trial));
      const auto p = random_problem(6, 3, rng, 1.0 + 0.1 * (trial % 7));
      IqpOptions opts;
      opts.fw.max_iters = iters;
      const auto bb = solve_iqp(p, opts);
      const auto exact = solve_iqp_brute_force(p);
      ASSERT_EQ(bb.feasible, exact.feasible) << "iters " << iters << " trial " << trial;
      if (!exact.feasible) continue;
      EXPECT_TRUE(bb.proven_optimal) << "iters " << iters << " trial " << trial;
      EXPECT_NEAR(bb.objective, exact.objective, 1e-6 * std::max(1.0, std::abs(exact.objective)))
          << "iters " << iters << " trial " << trial;
    }
  }
}

TEST(Iqp, CrossTermsChangeTheOptimum) {
  // Figure 1's motivating example as a unit test: two groups, two choices
  // ("quantize" with cost 1 / "keep" with cost 2), budget forces exactly
  // two cheap picks among three groups; negative cross term between groups
  // 1 and 2 makes (1,2) optimal even though diagonals prefer (0,1).
  QuadraticProblem p;
  const std::int64_t n = 6;  // 3 groups x 2 choices; choice 0 = quantize
  p.G = Tensor({n, n});
  // Diagonal sensitivities for "quantize": 0.115, 0.140, 0.246.
  p.G.at({0, 0}) = 0.115F;
  p.G.at({2, 2}) = 0.140F;
  p.G.at({4, 4}) = 0.246F;
  // Cross terms (i<j, quantize-quantize): (0,1)=+0.009, (1,2)=0, (0,2)=-0.070... pick
  // the paper's ResNet-34 example: pair (1,2) has -0.070.
  p.G.at({2, 4}) = -0.070F;
  p.G.at({4, 2}) = -0.070F;
  p.G.at({0, 2}) = 0.009F;
  p.G.at({2, 0}) = 0.009F;
  p.cost = {{1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0}};
  p.budget = 4.0;  // exactly two groups can stay at cost 2 -> two quantized

  IqpOptions opts;
  opts.objective_convex = false;  // the example matrix is indefinite
  const auto res = solve_iqp(p, opts);
  ASSERT_TRUE(res.feasible);
  // Optimal: quantize groups 1 and 2 (0.140 + 0.246 - 0.140 = 0.246 vs
  // 0.115 + 0.140 + 0.018 = 0.273).
  EXPECT_EQ(res.choice[0], 1);
  EXPECT_EQ(res.choice[1], 0);
  EXPECT_EQ(res.choice[2], 0);

  // Diagonal-only solver would pick groups 0 and 1 instead.
  QuadraticProblem diag = p;
  diag.G = Tensor({n, n});
  for (std::int64_t i = 0; i < n; ++i) diag.G.at({i, i}) = p.G.at({i, i});
  const auto res_diag = solve_iqp(diag, opts);
  ASSERT_TRUE(res_diag.feasible);
  EXPECT_EQ(res_diag.choice[0], 0);
  EXPECT_EQ(res_diag.choice[1], 0);
  EXPECT_EQ(res_diag.choice[2], 1);
}

TEST(Iqp, NodeLimitReportsHitLimit) {
  Rng rng(6);
  const auto p = random_problem(8, 3, rng, 1.4);
  IqpOptions opts;
  opts.max_nodes = 1;
  const auto res = solve_iqp(p, opts);
  EXPECT_TRUE(res.hit_limit);
  if (res.feasible) {
    EXPECT_FALSE(res.proven_optimal);
    EXPECT_LE(p.integer_cost(res.choice), p.budget + 1e-9);
  }
}

TEST(Iqp, NonConvexModeStillProducesFeasibleAssignments) {
  Rng rng(7);
  // Indefinite G: random symmetric.
  QuadraticProblem p;
  const std::int64_t n = 9;
  Tensor g = Tensor::randn({n, n}, rng);
  p.G = Tensor({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      p.G.at({i, j}) = 0.5F * (g.at({i, j}) + g.at({j, i}));
    }
  }
  p.cost = {{1, 2, 3}, {1, 2, 3}, {1, 2, 3}};
  p.budget = 6.0;
  IqpOptions opts;
  opts.objective_convex = false;
  opts.max_nodes = 500;
  const auto res = solve_iqp(p, opts);
  ASSERT_TRUE(res.feasible);
  EXPECT_LE(p.integer_cost(res.choice), p.budget + 1e-9);
}

TEST(Anneal, FindsNearOptimalOnSmallPsdInstance) {
  Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    const auto p = random_problem(5, 3, rng, 1.5);
    const auto exact = solve_iqp_brute_force(p);
    AnnealOptions opts;
    opts.iterations = 5000;
    opts.seed = 42 + static_cast<std::uint64_t>(trial);
    const auto heur = solve_anneal(p, opts);
    ASSERT_TRUE(heur.feasible);
    EXPECT_LE(p.integer_cost(heur.choice), p.budget + 1e-9);
    EXPECT_LE(heur.objective, exact.objective * 1.2 + 0.1);
  }
}

TEST(Anneal, InfeasibleInstanceReported) {
  QuadraticProblem p;
  p.G = Tensor({2, 2});
  p.cost = {{5.0, 6.0}};
  p.budget = 1.0;
  EXPECT_FALSE(solve_anneal(p).feasible);
}

TEST(Iqp, StatusDistinguishesProvenInfeasibleFromStarvedSearch) {
  // Proven infeasible: the search completes without an incumbent because
  // none exists — pruning only ever cuts against incumbents, so an empty
  // completed search is a proof.
  QuadraticProblem p;
  p.G = Tensor({2, 2});
  p.cost = {{5.0, 6.0}};
  p.budget = 1.0;
  const auto infeasible = solve_iqp(p);
  EXPECT_FALSE(infeasible.feasible);
  EXPECT_FALSE(infeasible.hit_limit);
  EXPECT_EQ(infeasible.status, IqpStatus::kInfeasible);

  // Starved: the node budget expires before any incumbent is found. That
  // proves nothing about feasibility and the status must say so.
  Rng rng(11);
  const auto q = random_problem(6, 3, rng, 1.4);
  IqpOptions opts;
  opts.max_nodes = 0;
  const auto starved = solve_iqp(q, opts);
  EXPECT_TRUE(starved.hit_limit);
  EXPECT_FALSE(starved.feasible);
  EXPECT_EQ(starved.status, IqpStatus::kLimitNoIncumbent);

  // Healthy solve on the same instance: optimal and proven.
  const auto solved = solve_iqp(q);
  ASSERT_TRUE(solved.feasible);
  EXPECT_EQ(solved.status, IqpStatus::kOptimal);
  EXPECT_EQ(solved.source, SolutionSource::kIqp);

  EXPECT_STREQ(solution_source_name(SolutionSource::kMckpDp), "mckp_dp");
}

TEST(Fallback, MatchesNativeIqpWhenHealthy) {
  Rng rng(12);
  const auto p = random_problem(5, 3, rng, 1.5);
  const auto native = solve_iqp(p);
  const auto chained = solve_with_fallback(p);
  ASSERT_TRUE(chained.feasible);
  EXPECT_EQ(chained.source, SolutionSource::kIqp);
  EXPECT_EQ(chained.choice, native.choice);
  EXPECT_DOUBLE_EQ(chained.objective, native.objective);
}

TEST(Fallback, StarvedSearchDegradesToMckpDp) {
  Rng rng(13);
  const auto p = random_problem(6, 3, rng, 1.4);
  IqpOptions opts;
  opts.max_nodes = 0;  // B&B finds no incumbent at all
  const auto res = solve_with_fallback(p, opts);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.status, IqpStatus::kFeasible);
  EXPECT_EQ(res.source, SolutionSource::kMckpDp);
  EXPECT_FALSE(res.proven_optimal);
  EXPECT_LE(p.integer_cost(res.choice), p.budget + 1e-9);
  // The degraded objective is the true quadratic objective of the served
  // choice, not the diagonal proxy the DP optimized.
  EXPECT_NEAR(res.objective, p.integer_objective(res.choice),
              1e-6 * std::max(1.0, std::abs(res.objective)));
  // No usable bound survives a failed B&B.
  EXPECT_TRUE(std::isinf(res.gap()));
}

TEST(Fallback, AbsorbsInjectedOracleFailure) {
  Rng rng(14);
  const auto p = random_problem(5, 3, rng, 1.5);

  clado::fault::arm_from(clado::fault::Site::kSolverOracle, 1);
  // The raw solver propagates the failure...
  EXPECT_THROW(solve_iqp(p), clado::fault::FaultInjected);
  // ...the chain absorbs it and serves a feasible degraded assignment.
  const auto res = solve_with_fallback(p);
  clado::fault::disarm_all();

  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.source, SolutionSource::kMckpDp);
  EXPECT_LE(p.integer_cost(res.choice), p.budget + 1e-9);
}

TEST(Fallback, ProvenInfeasibilityPassesThroughEveryTier) {
  // No tier can conjure bytes that do not exist: a budget below the
  // cheapest assignment stays infeasible with its proof intact.
  QuadraticProblem p;
  p.G = Tensor({2, 2});
  p.cost = {{5.0, 6.0}};
  p.budget = 1.0;
  const auto res = solve_with_fallback(p);
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(res.status, IqpStatus::kInfeasible);
}

TEST(Anneal, DeterministicForFixedSeed) {
  Rng rng(9);
  const auto p = random_problem(6, 3, rng, 1.5);
  AnnealOptions opts;
  opts.seed = 7;
  const auto a = solve_anneal(p, opts);
  const auto b = solve_anneal(p, opts);
  EXPECT_EQ(a.choice, b.choice);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

}  // namespace
}  // namespace clado::solver
