#include "clado/solver/mckp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "clado/tensor/rng.h"

namespace clado::solver {
namespace {

using clado::tensor::Rng;

std::vector<ChoiceGroup> random_instance(std::size_t groups, std::size_t choices, Rng& rng) {
  std::vector<ChoiceGroup> out(groups);
  for (auto& g : out) {
    for (std::size_t m = 0; m < choices; ++m) {
      g.value.push_back(rng.uniform(-1.0, 1.0));
      g.cost.push_back(rng.uniform(0.1, 2.0));
    }
  }
  return out;
}

double min_total_cost(const std::vector<ChoiceGroup>& groups) {
  double c = 0.0;
  for (const auto& g : groups) c += *std::min_element(g.cost.begin(), g.cost.end());
  return c;
}

TEST(MckpDp, TrivialSingleGroup) {
  std::vector<ChoiceGroup> groups = {{{5.0, 1.0, 3.0}, {1.0, 2.0, 3.0}}};
  const auto sol = solve_mckp_dp(groups, 10.0);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.choice[0], 1);  // min value fits
  EXPECT_DOUBLE_EQ(sol.value, 1.0);
}

TEST(MckpDp, BudgetForcesCheapChoice) {
  std::vector<ChoiceGroup> groups = {{{5.0, 1.0}, {1.0, 10.0}}};
  const auto sol = solve_mckp_dp(groups, 5.0);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.choice[0], 0);  // the good choice is too expensive
}

TEST(MckpDp, InfeasibleWhenCheapestExceedsBudget) {
  std::vector<ChoiceGroup> groups = {{{1.0, 2.0}, {5.0, 6.0}}};
  EXPECT_FALSE(solve_mckp_dp(groups, 4.0).feasible);
}

TEST(MckpDp, MatchesBruteForceOnRandomInstances) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto groups = random_instance(6, 3, rng);
    const double budget = min_total_cost(groups) * rng.uniform(1.05, 2.0);
    const auto dp = solve_mckp_dp(groups, budget, 8192);
    const auto bf = solve_mckp_brute_force(groups, budget);
    ASSERT_EQ(dp.feasible, bf.feasible) << "trial " << trial;
    if (bf.feasible) {
      EXPECT_LE(dp.cost, budget + 1e-9);
      // DP on a fine grid should match the exact optimum closely.
      EXPECT_NEAR(dp.value, bf.value, 1e-6 + 0.02 * std::abs(bf.value)) << "trial " << trial;
    }
  }
}

TEST(MckpDp, SolutionsAlwaysFeasible) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto groups = random_instance(10, 4, rng);
    const double budget = min_total_cost(groups) * rng.uniform(1.0, 3.0);
    const auto sol = solve_mckp_dp(groups, budget, 512);  // coarse grid
    if (sol.feasible) {
      double cost = 0.0;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        cost += groups[g].cost[static_cast<std::size_t>(sol.choice[g])];
      }
      EXPECT_LE(cost, budget + 1e-9) << "trial " << trial;
    }
  }
}

TEST(MckpLp, LowerBoundsIntegerOptimum) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const auto groups = random_instance(5, 3, rng);
    const double budget = min_total_cost(groups) * rng.uniform(1.05, 2.0);
    const auto lp = solve_mckp_lp(groups, budget);
    const auto bf = solve_mckp_brute_force(groups, budget);
    ASSERT_EQ(lp.feasible, bf.feasible);
    if (bf.feasible) {
      EXPECT_LE(lp.value, bf.value + 1e-9) << "trial " << trial;
    }
  }
}

TEST(MckpLp, WeightsAreASimplexPoint) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const auto groups = random_instance(6, 4, rng);
    const double budget = min_total_cost(groups) * 1.3;
    const auto lp = solve_mckp_lp(groups, budget);
    if (!lp.feasible) continue;
    int fractional_groups = 0;
    double cost = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      double sum = 0.0;
      bool fractional = false;
      for (std::size_t m = 0; m < groups[g].value.size(); ++m) {
        const double w = lp.weight[g][m];
        EXPECT_GE(w, -1e-12);
        if (w > 1e-9 && w < 1.0 - 1e-9) fractional = true;
        sum += w;
        cost += w * groups[g].cost[m];
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
      if (fractional) ++fractional_groups;
    }
    EXPECT_LE(fractional_groups, 1);  // Sinha–Zoltners structure
    EXPECT_LE(cost, budget + 1e-6);
  }
}

TEST(MckpLp, UnconstrainedOptimumShortcut) {
  std::vector<ChoiceGroup> groups = {{{3.0, 1.0}, {1.0, 1.0}}, {{2.0, 5.0}, {1.0, 1.0}}};
  const auto lp = solve_mckp_lp(groups, 100.0);
  ASSERT_TRUE(lp.feasible);
  EXPECT_DOUBLE_EQ(lp.weight[0][1], 1.0);
  EXPECT_DOUBLE_EQ(lp.weight[1][0], 1.0);
  EXPECT_DOUBLE_EQ(lp.value, 3.0);
}

TEST(MckpLp, RespectsAllowedMask) {
  std::vector<ChoiceGroup> groups = {{{0.0, 10.0}, {1.0, 1.0}}};
  std::vector<std::vector<char>> allowed = {{0, 1}};  // forbid the good choice
  const auto lp = solve_mckp_lp(groups, 100.0, allowed);
  ASSERT_TRUE(lp.feasible);
  EXPECT_DOUBLE_EQ(lp.weight[0][1], 1.0);
}

TEST(MckpLp, FullyMaskedGroupIsInfeasible) {
  std::vector<ChoiceGroup> groups = {{{0.0, 1.0}, {1.0, 1.0}}};
  std::vector<std::vector<char>> allowed = {{0, 0}};
  EXPECT_FALSE(solve_mckp_lp(groups, 100.0, allowed).feasible);
}

TEST(MckpGreedy, FeasibleAndNoWorseThanBase) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const auto groups = random_instance(8, 3, rng);
    const double min_cost = min_total_cost(groups);
    const double budget = min_cost * rng.uniform(1.0, 2.5);
    const auto greedy = solve_mckp_greedy(groups, budget);
    ASSERT_TRUE(greedy.feasible);
    double cost = 0.0, base_value = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      cost += groups[g].cost[static_cast<std::size_t>(greedy.choice[g])];
      // Base = value at each group's cheapest choice.
      std::size_t cheapest = 0;
      for (std::size_t m = 1; m < groups[g].cost.size(); ++m) {
        if (groups[g].cost[m] < groups[g].cost[cheapest]) cheapest = m;
      }
      base_value += groups[g].value[cheapest];
    }
    EXPECT_LE(cost, budget + 1e-9);
    EXPECT_LE(greedy.value, base_value + 1e-9);
  }
}

TEST(MckpGreedy, NeverBelowLpBound) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const auto groups = random_instance(6, 3, rng);
    const double budget = min_total_cost(groups) * 1.4;
    const auto lp = solve_mckp_lp(groups, budget);
    const auto greedy = solve_mckp_greedy(groups, budget);
    ASSERT_TRUE(lp.feasible);
    ASSERT_TRUE(greedy.feasible);
    EXPECT_GE(greedy.value, lp.value - 1e-9);
  }
}

TEST(Mckp, ValidationErrors) {
  EXPECT_THROW(solve_mckp_dp({{{1.0}, {}}}, 1.0), std::invalid_argument);
  EXPECT_THROW(solve_mckp_dp({{{1.0}, {-0.5}}}, 1.0), std::invalid_argument);
  EXPECT_THROW(solve_mckp_dp({{{1.0}, {0.5}}}, 1.0, 0), std::invalid_argument);
}

TEST(Mckp, NonFiniteValuesAndCostsRejected) {
  // A NaN value breaks the strict weak ordering the hull sort relies on
  // (UB in std::sort); validate() must reject it in every solver.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<ChoiceGroup> nan_value = {{{nan, 1.0}, {1.0, 2.0}}};
  const std::vector<ChoiceGroup> inf_value = {{{inf, 1.0}, {1.0, 2.0}}};
  const std::vector<ChoiceGroup> nan_cost = {{{1.0, 2.0}, {nan, 1.0}}};
  const std::vector<ChoiceGroup> inf_cost = {{{1.0, 2.0}, {inf, 1.0}}};
  for (const auto& groups : {nan_value, inf_value, nan_cost, inf_cost}) {
    EXPECT_THROW(solve_mckp_dp(groups, 10.0), std::invalid_argument);
    EXPECT_THROW(solve_mckp_brute_force(groups, 10.0), std::invalid_argument);
    EXPECT_THROW(solve_mckp_lp(groups, 10.0), std::invalid_argument);
    EXPECT_THROW(solve_mckp_greedy(groups, 10.0), std::invalid_argument);
  }
}

TEST(Mckp, NanBudgetRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<ChoiceGroup> groups = {{{1.0, 2.0}, {1.0, 2.0}}};
  EXPECT_THROW(solve_mckp_dp(groups, nan), std::invalid_argument);
  EXPECT_THROW(solve_mckp_brute_force(groups, nan), std::invalid_argument);
  EXPECT_THROW(solve_mckp_lp(groups, nan), std::invalid_argument);
  EXPECT_THROW(solve_mckp_greedy(groups, nan), std::invalid_argument);
}

TEST(MckpDp, ZeroBudgetWithoutZeroCostChoicesIsInfeasible) {
  // Used to divide by budget when sizing the DP grid: budget = 0 made the
  // cell size 0, ceil(cost / 0) = inf, and the int cast of inf is UB.
  const std::vector<ChoiceGroup> groups = {{{1.0, 2.0}, {0.5, 1.0}}};
  EXPECT_FALSE(solve_mckp_dp(groups, 0.0).feasible);
  EXPECT_FALSE(solve_mckp_dp(groups, -3.0).feasible);
}

TEST(MckpDp, ZeroBudgetPicksBestZeroCostChoices) {
  const std::vector<ChoiceGroup> groups = {
      {{4.0, 1.0, 2.0}, {0.0, 0.0, 1.0}},  // two free choices: best is index 1
      {{7.0, 3.0}, {0.0, 0.0}},            // all free: best is index 1
  };
  const auto sol = solve_mckp_dp(groups, 0.0);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.choice[0], 1);
  EXPECT_EQ(sol.choice[1], 1);
  EXPECT_DOUBLE_EQ(sol.value, 4.0);
  EXPECT_DOUBLE_EQ(sol.cost, 0.0);
  // One group with no free choice makes the whole instance infeasible.
  auto mixed = groups;
  mixed.push_back({{1.0}, {0.25}});
  EXPECT_FALSE(solve_mckp_dp(mixed, 0.0).feasible);
}

TEST(Mckp, TieCostGroupsAgreeWithBruteForce) {
  // Equal costs inside a group exercise the hull construction's dominance
  // tie-breaking: only the best-value choice per cost should survive.
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ChoiceGroup> groups(5);
    for (auto& g : groups) {
      const double c = rng.uniform(0.5, 1.5);
      for (int m = 0; m < 3; ++m) {
        g.value.push_back(rng.uniform(-1.0, 1.0));
        g.cost.push_back(c);  // every choice in the group costs the same
      }
    }
    const double budget = min_total_cost(groups) * rng.uniform(1.0, 1.5);
    const auto bf = solve_mckp_brute_force(groups, budget);
    const auto lp = solve_mckp_lp(groups, budget);
    const auto greedy = solve_mckp_greedy(groups, budget);
    ASSERT_TRUE(bf.feasible) << "trial " << trial;
    ASSERT_TRUE(greedy.feasible) << "trial " << trial;
    // With uniform in-group costs the budget never binds past the base
    // solution, so every solver should find the exact optimum.
    EXPECT_LE(lp.value, bf.value + 1e-9) << "trial " << trial;
    EXPECT_NEAR(greedy.value, bf.value, 1e-9) << "trial " << trial;
    EXPECT_LE(greedy.cost, budget + 1e-9) << "trial " << trial;
  }
}

TEST(Mckp, SingleChoiceGroupsAgreeWithBruteForce) {
  // Degenerate groups (one choice each) leave no decisions; every solver
  // must return the same forced assignment or agree it is infeasible.
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ChoiceGroup> groups(6);
    for (auto& g : groups) {
      g.value.push_back(rng.uniform(-1.0, 1.0));
      g.cost.push_back(rng.uniform(0.1, 2.0));
    }
    // Clearly feasible or clearly infeasible budgets: the narrow band just
    // above the forced cost is where the DP's conservative cost rounding
    // may legitimately disagree with brute force on feasibility.
    const double ratio = (trial % 2 == 0) ? rng.uniform(1.05, 1.3) : rng.uniform(0.5, 0.95);
    const double budget = min_total_cost(groups) * ratio;
    const auto bf = solve_mckp_brute_force(groups, budget);
    const auto dp = solve_mckp_dp(groups, budget, 8192);
    const auto lp = solve_mckp_lp(groups, budget);
    const auto greedy = solve_mckp_greedy(groups, budget);
    EXPECT_EQ(dp.feasible, bf.feasible) << "trial " << trial;
    EXPECT_EQ(lp.feasible, bf.feasible) << "trial " << trial;
    EXPECT_EQ(greedy.feasible, bf.feasible) << "trial " << trial;
    if (bf.feasible) {
      EXPECT_NEAR(dp.value, bf.value, 1e-9) << "trial " << trial;
      EXPECT_NEAR(lp.value, bf.value, 1e-9) << "trial " << trial;
      EXPECT_NEAR(greedy.value, bf.value, 1e-9) << "trial " << trial;
    }
  }
}

TEST(MckpOracle, ReuseAcrossValuesAndMasksMatchesFreshSolves) {
  // One oracle serves every Frank–Wolfe iteration and every branch-and-
  // bound node; no state from an earlier solve may leak into a later one.
  // Values come from a coarse grid and costs repeat inside groups, so
  // tied values, tied efficiencies, equal-cost runs and dominated choices
  // all occur.
  Rng rng(9);
  const std::size_t groups = 6, choices = 4;
  std::vector<std::vector<double>> cost(groups);
  for (auto& g : cost) {
    for (std::size_t m = 0; m < choices; ++m) g.push_back(0.25 * (1 + rng.uniform_int(4)));
  }
  MckpOracle oracle(cost);
  const std::size_t n = groups * choices;
  std::vector<double> weight(n), scaled(n), scaled_weight(n);
  std::vector<int> choice(groups), scaled_choice(groups);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<ChoiceGroup> inst(groups);
    std::vector<double> value;
    for (std::size_t g = 0; g < groups; ++g) {
      inst[g].cost = cost[g];
      for (std::size_t m = 0; m < choices; ++m) {
        inst[g].value.push_back(0.5 * static_cast<double>(rng.uniform_int(5)) - 1.0);
        value.push_back(inst[g].value.back());
      }
    }
    // No mask, a random mask, or a mask that empties one group.
    std::vector<std::vector<char>> allowed;
    if (trial % 3 != 0) {
      allowed.assign(groups, std::vector<char>(choices, 0));
      for (auto& g : allowed) {
        for (auto& a : g) a = rng.uniform(0.0, 1.0) < 0.6 ? 1 : 0;
        if (trial % 17 != 1) g[rng.uniform_int(choices)] = 1;
      }
    }
    const double budget = min_total_cost(inst) * rng.uniform(0.9, 1.8);
    oracle.set_mask(allowed);

    const MckpOutcome lp = oracle.solve_lp(value.data(), budget, weight.data());
    const auto fresh_lp = solve_mckp_lp(inst, budget, allowed);
    ASSERT_EQ(lp.feasible, fresh_lp.feasible) << "trial " << trial;
    EXPECT_EQ(lp.value, fresh_lp.value) << "trial " << trial;
    EXPECT_EQ(lp.cost, fresh_lp.cost) << "trial " << trial;
    std::size_t nonzero = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t m = 0; m < choices; ++m) {
        const double w = weight[g * choices + m];
        EXPECT_EQ(w, fresh_lp.weight[g][m]) << "trial " << trial << " group " << g;
        if (w == 0.0) continue;
        ++nonzero;
        const auto& sup = oracle.support();
        EXPECT_NE(std::find(sup.begin(), sup.end(), static_cast<std::int64_t>(g * choices + m)),
                  sup.end())
            << "trial " << trial << ": nonzero weight missing from support";
      }
    }
    EXPECT_LE(nonzero, groups + 1);
    if (lp.feasible) {
      EXPECT_LE(oracle.support().size(), groups + 1);
    }

    const MckpOutcome greedy = oracle.solve_greedy(value.data(), budget, choice.data());
    const auto fresh_greedy = solve_mckp_greedy(inst, budget, allowed);
    ASSERT_EQ(greedy.feasible, fresh_greedy.feasible) << "trial " << trial;
    if (!greedy.feasible) continue;
    EXPECT_EQ(choice, fresh_greedy.choice) << "trial " << trial;
    EXPECT_EQ(greedy.value, fresh_greedy.value) << "trial " << trial;
    EXPECT_EQ(greedy.cost, fresh_greedy.cost) << "trial " << trial;

    // Frank–Wolfe feeds the oracle G·x rather than the gradient 2·G·x:
    // doubling every value is exact, so no choice may change.
    for (std::size_t i = 0; i < n; ++i) scaled[i] = 2.0 * value[i];
    oracle.solve_lp(scaled.data(), budget, scaled_weight.data());
    EXPECT_EQ(scaled_weight, weight) << "trial " << trial;
    oracle.solve_greedy(scaled.data(), budget, scaled_choice.data());
    EXPECT_EQ(scaled_choice, choice) << "trial " << trial;
  }
}

TEST(MckpOracle, RejectsBadCostsValuesAndMasks) {
  using Costs = std::vector<std::vector<double>>;
  EXPECT_THROW(MckpOracle(Costs{{1.0}, {}}), std::invalid_argument);
  EXPECT_THROW(MckpOracle(Costs{{1.0, -0.5}}), std::invalid_argument);
  EXPECT_THROW(MckpOracle(Costs{{1.0, std::numeric_limits<double>::infinity()}}),
               std::invalid_argument);
  MckpOracle oracle(Costs{{1.0, 2.0}, {1.0}});
  EXPECT_THROW(oracle.set_mask(std::vector<std::vector<char>>{{1, 1}}), std::invalid_argument);
  EXPECT_THROW(oracle.set_mask(std::vector<std::vector<char>>{{1}, {1}}), std::invalid_argument);
  std::vector<double> weight(3);
  std::vector<int> choice(2);
  const std::vector<double> nan_value = {0.0, std::numeric_limits<double>::quiet_NaN(), 1.0};
  EXPECT_THROW(oracle.solve_lp(nan_value.data(), 5.0, weight.data()), std::invalid_argument);
  EXPECT_THROW(oracle.solve_greedy(nan_value.data(), 5.0, choice.data()), std::invalid_argument);
  const std::vector<double> value = {0.0, -1.0, 1.0};
  EXPECT_THROW(oracle.solve_lp(value.data(), std::nan(""), weight.data()), std::invalid_argument);
}

TEST(Mckp, EmptyInstanceIsTriviallyFeasible) {
  const auto sol = solve_mckp_dp({}, 1.0);
  EXPECT_TRUE(sol.feasible);
  EXPECT_TRUE(sol.choice.empty());
}

}  // namespace
}  // namespace clado::solver
