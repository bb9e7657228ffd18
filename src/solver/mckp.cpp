#include "clado/solver/mckp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace clado::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate(const std::vector<ChoiceGroup>& groups) {
  for (const auto& g : groups) {
    if (g.value.size() != g.cost.size() || g.value.empty()) {
      throw std::invalid_argument("mckp: group value/cost size mismatch or empty group");
    }
    // NaN values/costs would reach the efficiency sort comparators in
    // solve_mckp_lp / solve_mckp_greedy, where a comparator that answers
    // false both ways violates strict weak ordering (UB in std::sort).
    for (double v : g.value) {
      if (!std::isfinite(v)) throw std::invalid_argument("mckp: non-finite value");
    }
    for (double c : g.cost) {
      if (!std::isfinite(c)) throw std::invalid_argument("mckp: non-finite cost");
      if (c < 0.0) throw std::invalid_argument("mckp: negative cost");
    }
  }
}

/// A NaN budget poisons every feasibility comparison below (all compares
/// answer false), so reject it up front. +inf is fine: it means
/// "unconstrained" and every comparison behaves.
void validate_budget(double budget) {
  if (std::isnan(budget)) throw std::invalid_argument("mckp: budget is NaN");
}

}  // namespace

MckpSolution solve_mckp_dp(const std::vector<ChoiceGroup>& groups, double budget, int buckets) {
  validate(groups);
  validate_budget(budget);
  if (buckets < 1) throw std::invalid_argument("mckp: buckets must be >= 1");
  const std::size_t n = groups.size();
  if (n == 0) return {.choice = {}, .value = 0.0, .cost = 0.0, .feasible = true};

  // A non-positive budget would make the cost grid degenerate: cell = 0 and
  // ceil(c / cell) = inf, whose cast to int is UB. Costs are >= 0, so with
  // budget < 0 nothing fits, and at budget == 0 only all-zero-cost picks
  // do — solve that directly (best value among zero-cost choices per group).
  if (budget <= 0.0) {
    MckpSolution sol;
    if (budget < 0.0) return sol;
    sol.choice.assign(n, -1);
    for (std::size_t g = 0; g < n; ++g) {
      for (std::size_t m = 0; m < groups[g].value.size(); ++m) {
        if (groups[g].cost[m] != 0.0) continue;
        const int cur = sol.choice[g];
        if (cur < 0 || groups[g].value[m] < groups[g].value[static_cast<std::size_t>(cur)]) {
          sol.choice[g] = static_cast<int>(m);
        }
      }
      if (sol.choice[g] < 0) return {};  // group has no zero-cost choice
      sol.value += groups[g].value[static_cast<std::size_t>(sol.choice[g])];
    }
    sol.feasible = true;
    return sol;
  }

  // Cost grid: round each cost UP to a multiple of budget/buckets so that a
  // DP-feasible solution is feasible in real costs.
  const double cell = budget / static_cast<double>(buckets);
  auto scaled = [&](double c) {
    return static_cast<int>(std::ceil(c / cell - 1e-12));
  };

  const int cap = buckets;
  std::vector<double> dp(static_cast<std::size_t>(cap + 1), kInf);
  // parent[g * (cap+1) + c] = chosen index at group g reaching state c.
  std::vector<int> parent(n * static_cast<std::size_t>(cap + 1), -1);
  std::vector<int> prev_cost(n * static_cast<std::size_t>(cap + 1), -1);

  dp[0] = 0.0;
  std::vector<double> next(static_cast<std::size_t>(cap + 1));
  for (std::size_t g = 0; g < n; ++g) {
    std::fill(next.begin(), next.end(), kInf);
    for (int c = 0; c <= cap; ++c) {
      if (dp[static_cast<std::size_t>(c)] == kInf) continue;
      for (std::size_t m = 0; m < groups[g].value.size(); ++m) {
        const int sc = scaled(groups[g].cost[m]);
        if (c + sc > cap) continue;
        const double v = dp[static_cast<std::size_t>(c)] + groups[g].value[m];
        const std::size_t state = static_cast<std::size_t>(c + sc);
        if (v < next[state]) {
          next[state] = v;
          parent[g * static_cast<std::size_t>(cap + 1) + state] = static_cast<int>(m);
          prev_cost[g * static_cast<std::size_t>(cap + 1) + state] = c;
        }
      }
    }
    dp.swap(next);
  }

  int best_c = -1;
  double best_v = kInf;
  for (int c = 0; c <= cap; ++c) {
    if (dp[static_cast<std::size_t>(c)] < best_v) {
      best_v = dp[static_cast<std::size_t>(c)];
      best_c = c;
    }
  }
  MckpSolution sol;
  if (best_c < 0) return sol;  // infeasible

  sol.choice.assign(n, -1);
  int c = best_c;
  for (std::size_t g = n; g-- > 0;) {
    const int m = parent[g * static_cast<std::size_t>(cap + 1) + static_cast<std::size_t>(c)];
    sol.choice[g] = m;
    c = prev_cost[g * static_cast<std::size_t>(cap + 1) + static_cast<std::size_t>(c)];
  }
  sol.feasible = true;
  for (std::size_t g = 0; g < n; ++g) {
    sol.value += groups[g].value[static_cast<std::size_t>(sol.choice[g])];
    sol.cost += groups[g].cost[static_cast<std::size_t>(sol.choice[g])];
  }
  return sol;
}

MckpSolution solve_mckp_brute_force(const std::vector<ChoiceGroup>& groups, double budget) {
  validate(groups);
  validate_budget(budget);
  const std::size_t n = groups.size();
  MckpSolution best;
  std::vector<int> choice(n, 0);
  double best_v = kInf;

  // Odometer enumeration.
  while (true) {
    double v = 0.0, c = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      v += groups[g].value[static_cast<std::size_t>(choice[g])];
      c += groups[g].cost[static_cast<std::size_t>(choice[g])];
    }
    if (c <= budget && v < best_v) {
      best_v = v;
      best = {.choice = choice, .value = v, .cost = c, .feasible = true};
    }
    std::size_t g = 0;
    while (g < n) {
      if (++choice[g] < static_cast<int>(groups[g].value.size())) break;
      choice[g] = 0;
      ++g;
    }
    if (g == n) break;
  }
  return best;
}

MckpOracle::MckpOracle(const std::vector<std::vector<double>>& cost) {
  offset_.reserve(cost.size() + 1);
  offset_.push_back(0);
  for (const auto& group : cost) {
    if (group.empty()) throw std::invalid_argument("mckp: empty group");
    for (double c : group) {
      if (!std::isfinite(c)) throw std::invalid_argument("mckp: non-finite cost");
      if (c < 0.0) throw std::invalid_argument("mckp: negative cost");
      cost_.push_back(c);
    }
    offset_.push_back(static_cast<std::int64_t>(cost_.size()));
  }
  const std::size_t n = cost_.size();
  const std::size_t groups = cost.size();
  by_cost_.resize(n);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto begin = by_cost_.begin() + offset_[g];
    const auto end = by_cost_.begin() + offset_[g + 1];
    std::iota(begin, end, offset_[g]);
    std::sort(begin, end, [this](std::int64_t a, std::int64_t b) {
      const double ca = cost_[static_cast<std::size_t>(a)];
      const double cb = cost_[static_cast<std::size_t>(b)];
      return ca < cb || (ca == cb && a < b);
    });
  }
  order_.resize(n);
  order_end_.resize(groups);
  hull_.resize(n);
  hull_size_.resize(groups);
  steps_.reserve(n);
  at_.resize(groups);
  frac_.resize(groups);
  support_.reserve(groups + 1);
  set_mask(nullptr);
}

template <typename Allowed>
void MckpOracle::apply_mask(Allowed allowed) {
  fully_masked_ = false;
  std::size_t k = 0;
  for (std::size_t g = 0; g < num_groups(); ++g) {
    const std::size_t start = k;
    for (std::int64_t i = offset_[g]; i < offset_[g + 1]; ++i) {
      const std::int64_t m = by_cost_[static_cast<std::size_t>(i)];
      if (allowed(g, m)) order_[k++] = m;
    }
    order_end_[g] = static_cast<std::int64_t>(k);
    if (k == start) fully_masked_ = true;
  }
}

void MckpOracle::set_mask(const char* allowed) {
  apply_mask([allowed](std::size_t, std::int64_t m) { return allowed == nullptr || allowed[m] != 0; });
}

void MckpOracle::set_mask(const std::vector<std::vector<char>>& allowed) {
  if (allowed.empty()) {
    set_mask(nullptr);
    return;
  }
  if (allowed.size() != num_groups()) {
    throw std::invalid_argument("mckp: mask has " + std::to_string(allowed.size()) +
                                " groups, instance has " + std::to_string(num_groups()));
  }
  for (std::size_t g = 0; g < num_groups(); ++g) {
    if (static_cast<std::int64_t>(allowed[g].size()) != offset_[g + 1] - offset_[g]) {
      throw std::invalid_argument("mckp: mask group " + std::to_string(g) +
                                  " does not match its choice count");
    }
  }
  apply_mask([this, &allowed](std::size_t g, std::int64_t m) {
    return allowed[g][static_cast<std::size_t>(m - offset_[g])] != 0;
  });
}

void MckpOracle::check_inputs(const double* value, double budget) const {
  validate_budget(budget);
  // A NaN value would reach the efficiency sort, where a comparator that
  // answers false both ways violates strict weak ordering (UB in std::sort).
  for (std::size_t i = 0; i < cost_.size(); ++i) {
    if (!std::isfinite(value[i])) throw std::invalid_argument("mckp: non-finite value");
  }
}

bool MckpOracle::build_hulls(const double* value, double budget, double& base_cost,
                             double& base_value) {
  base_cost = 0.0;
  base_value = 0.0;
  if (fully_masked_) return false;
  std::size_t i = 0;
  for (std::size_t g = 0; g < num_groups(); ++g) {
    // Lower convex hull of the group's allowed (cost, value) points, walked
    // in ascending cost: descending value, concave efficiency steps.
    HullPoint* hull = hull_.data() + offset_[g];
    std::int64_t size = 0;
    const auto end = static_cast<std::size_t>(order_end_[g]);
    while (i < end) {
      // Of an equal-cost run only the lowest value (first index on ties)
      // can be on the hull.
      std::int64_t best = order_[i];
      const double c = cost_[static_cast<std::size_t>(best)];
      for (++i; i < end && cost_[static_cast<std::size_t>(order_[i])] == c; ++i) {
        if (value[order_[i]] < value[best]) best = order_[i];
      }
      const HullPoint p{best, c, value[best]};
      // Dominance: keep a point only if it is strictly below every cheaper
      // kept point.
      if (size > 0 && p.value >= hull[size - 1].value) continue;
      // Convexity: efficiencies (value drop per cost) must be decreasing.
      while (size >= 2) {
        const HullPoint& a = hull[size - 2];
        const HullPoint& b = hull[size - 1];
        const double e_ab = (a.value - b.value) / (b.cost - a.cost);
        const double e_bp = (b.value - p.value) / (p.cost - b.cost);
        if (e_bp >= e_ab) {
          --size;  // b is not on the lower hull
        } else {
          break;
        }
      }
      hull[size++] = p;
    }
    hull_size_[g] = size;
    base_cost += hull[0].cost;
    base_value += hull[0].value;
  }
  return base_cost <= budget + 1e-9;
}

void MckpOracle::build_steps() {
  steps_.clear();
  for (std::size_t g = 0; g < num_groups(); ++g) {
    const HullPoint* hull = hull_.data() + offset_[g];
    for (std::int64_t h = 0; h + 1 < hull_size_[g]; ++h) {
      const double dc = hull[h + 1].cost - hull[h].cost;
      const double dv = hull[h + 1].value - hull[h].value;  // < 0 on hull
      steps_.push_back({-dv / dc, dc, dv, static_cast<std::int32_t>(g),
                        static_cast<std::int32_t>(h)});
    }
  }
  std::sort(steps_.begin(), steps_.end(),
            [](const Step& a, const Step& b) { return a.efficiency > b.efficiency; });
}

MckpOutcome MckpOracle::solve_lp(const double* value, double budget, double* weight) {
  check_inputs(value, budget);
  std::fill(weight, weight + cost_.size(), 0.0);
  support_.clear();
  if (fully_masked_) return {};

  // Unconstrained-optimum shortcut: pick each group's min-value allowed
  // choice (ties: cheaper, then lower index); if that fits the budget it
  // is LP-optimal.
  {
    double v = 0.0, c = 0.0;
    std::size_t i = 0;
    for (std::size_t g = 0; g < num_groups(); ++g) {
      std::int64_t best = order_[i];
      for (++i; i < static_cast<std::size_t>(order_end_[g]); ++i) {
        if (value[order_[i]] < value[best]) best = order_[i];
      }
      support_.push_back(best);
      v += value[best];
      c += cost_[static_cast<std::size_t>(best)];
    }
    if (c <= budget) {
      for (const std::int64_t j : support_) weight[j] = 1.0;
      return {.value = v, .cost = c, .feasible = true};
    }
    support_.clear();
  }

  double base_cost = 0.0, value_sum = 0.0;
  if (!build_hulls(value, budget, base_cost, value_sum)) return {};
  build_steps();

  std::fill(at_.begin(), at_.end(), 0);      // current hull position per group
  std::fill(frac_.begin(), frac_.end(), 0.0);
  double rem = budget - base_cost;
  for (const Step& s : steps_) {
    if (s.efficiency <= 0.0) break;  // no further improvement possible
    if (rem <= 1e-15) break;
    if (s.dcost <= rem) {
      rem -= s.dcost;
      value_sum += s.dvalue;
      at_[static_cast<std::size_t>(s.group)] = s.hull_pos + 1;
      frac_[static_cast<std::size_t>(s.group)] = 0.0;
    } else {
      const double f = rem / s.dcost;
      value_sum += f * s.dvalue;
      at_[static_cast<std::size_t>(s.group)] = s.hull_pos;
      frac_[static_cast<std::size_t>(s.group)] = f;
      rem = 0.0;
      break;
    }
  }

  for (std::size_t g = 0; g < num_groups(); ++g) {
    const HullPoint* hull = hull_.data() + offset_[g];
    const std::int64_t h = at_[g];
    weight[hull[h].index] = frac_[g] > 0.0 ? 1.0 - frac_[g] : 1.0;
    support_.push_back(hull[h].index);
    if (frac_[g] > 0.0) {
      weight[hull[h + 1].index] = frac_[g];
      support_.push_back(hull[h + 1].index);
    }
  }
  return {.value = value_sum, .cost = budget - rem, .feasible = true};
}

MckpOutcome MckpOracle::solve_greedy(const double* value, double budget, int* choice) {
  check_inputs(value, budget);
  double cost = 0.0, value_sum = 0.0;
  if (!build_hulls(value, budget, cost, value_sum)) return {};
  build_steps();

  std::fill(at_.begin(), at_.end(), 0);
  double rem = budget - cost;
  for (const Step& s : steps_) {
    if (s.efficiency <= 0.0) break;
    const auto g = static_cast<std::size_t>(s.group);
    if (at_[g] != s.hull_pos) continue;  // earlier step skipped: keep order valid
    if (s.dcost <= rem) {
      rem -= s.dcost;
      value_sum += s.dvalue;
      at_[g] = s.hull_pos + 1;
    }
  }
  for (std::size_t g = 0; g < num_groups(); ++g) {
    choice[g] = static_cast<int>(hull_[static_cast<std::size_t>(offset_[g] + at_[g])].index -
                                 offset_[g]);
  }
  return {.value = value_sum, .cost = budget - rem, .feasible = true};
}

namespace {

std::vector<std::vector<double>> costs_of(const std::vector<ChoiceGroup>& groups) {
  std::vector<std::vector<double>> cost;
  cost.reserve(groups.size());
  for (const auto& g : groups) cost.push_back(g.cost);
  return cost;
}

std::vector<double> values_of(const std::vector<ChoiceGroup>& groups) {
  std::vector<double> value;
  for (const auto& g : groups) value.insert(value.end(), g.value.begin(), g.value.end());
  return value;
}

}  // namespace

MckpLpSolution solve_mckp_lp(const std::vector<ChoiceGroup>& groups, double budget,
                             const std::vector<std::vector<char>>& allowed) {
  validate(groups);
  validate_budget(budget);
  MckpOracle oracle(costs_of(groups));
  oracle.set_mask(allowed);
  const std::vector<double> value = values_of(groups);
  std::vector<double> weight(value.size());
  const MckpOutcome out = oracle.solve_lp(value.data(), budget, weight.data());

  MckpLpSolution sol;
  sol.weight.resize(groups.size());
  auto it = weight.begin();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto size = static_cast<std::ptrdiff_t>(groups[g].value.size());
    sol.weight[g].assign(it, it + size);
    it += size;
  }
  sol.value = out.value;
  sol.cost = out.cost;
  sol.feasible = out.feasible;
  return sol;
}

MckpSolution solve_mckp_greedy(const std::vector<ChoiceGroup>& groups, double budget,
                               const std::vector<std::vector<char>>& allowed) {
  validate(groups);
  validate_budget(budget);
  MckpOracle oracle(costs_of(groups));
  oracle.set_mask(allowed);
  const std::vector<double> value = values_of(groups);
  std::vector<int> choice(groups.size());
  const MckpOutcome out = oracle.solve_greedy(value.data(), budget, choice.data());
  if (!out.feasible) return {};
  return {.choice = std::move(choice), .value = out.value, .cost = out.cost, .feasible = true};
}

}  // namespace clado::solver
