// Multiple-choice knapsack machinery.
//
// Two consumers:
//   * Baseline MPQ methods (HAWQ / MPQCO / CLADO*) have separable linear
//     objectives — their bit allocation IS a multiple-choice knapsack,
//     solved exactly here by dynamic programming over a scaled cost grid.
//   * CLADO's IQP branch-and-bound uses the exact LP relaxation of the
//     MCKP polytope as the linear-minimization oracle inside Frank–Wolfe
//     (the classic Sinha–Zoltners dominance + greedy-efficiency solution,
//     which has at most one fractional group).
#pragma once

#include <cstdint>
#include <vector>

namespace clado::solver {

/// One choice group: parallel arrays of value (to minimize) and cost.
struct ChoiceGroup {
  std::vector<double> value;
  std::vector<double> cost;
};

/// Integer solution: chosen index per group, or empty if infeasible.
struct MckpSolution {
  std::vector<int> choice;
  double value = 0.0;
  double cost = 0.0;
  bool feasible = false;
};

/// Exact DP on a scaled cost grid with `buckets` cells. Costs are rounded
/// UP to grid cells, so the returned solution is always feasible for the
/// true budget; with enough buckets (default 4096) the value is exact for
/// the instances this project produces. Groups where even the cheapest
/// choice exceeds the budget make the instance infeasible.
MckpSolution solve_mckp_dp(const std::vector<ChoiceGroup>& groups, double budget,
                           int buckets = 4096);

/// Brute-force reference (exponential; tests only).
MckpSolution solve_mckp_brute_force(const std::vector<ChoiceGroup>& groups, double budget);

/// Fractional solution of the LP relaxation: per group, a weight per choice
/// (sums to 1; at most one group fractional at the optimum).
struct MckpLpSolution {
  std::vector<std::vector<double>> weight;
  double value = 0.0;
  double cost = 0.0;
  bool feasible = false;
};

/// Value and cost of one MckpOracle solve; the assignment itself goes to
/// the caller's buffer.
struct MckpOutcome {
  double value = 0.0;
  double cost = 0.0;
  bool feasible = false;
};

/// The LP relaxation and the greedy integer repair over fixed per-group
/// costs, reusable across solves. Choices are addressed by flat index
/// (group-major, n = Σ group sizes). The cost order of each group is sorted
/// once at construction and the mask is applied once per set_mask(); each
/// solve then reads only a flat value array and allocates nothing — the
/// shape Frank–Wolfe needs, where every iteration changes only the values.
/// solve_mckp_lp / solve_mckp_greedy are thin wrappers over this class.
class MckpOracle {
 public:
  /// Throws std::invalid_argument on an empty group or a negative or
  /// non-finite cost.
  explicit MckpOracle(const std::vector<std::vector<double>>& cost);

  std::size_t num_groups() const { return offset_.size() - 1; }

  /// Flat mask over the n choices (nonzero = allowed); nullptr allows all.
  /// Stays in force for every later solve until the next call.
  void set_mask(const char* allowed);
  /// Per-group form of the same mask (empty = all allowed); throws
  /// std::invalid_argument when its shape differs from the costs'.
  void set_mask(const std::vector<std::vector<char>>& allowed);

  /// Exact LP relaxation (per-group lower convex hulls + global greedy
  /// efficiency walk; at most one fractional group). Writes all n weights
  /// of `weight`, which must not alias `value` (all zero when infeasible).
  /// Throws std::invalid_argument on a non-finite value or a NaN budget.
  MckpOutcome solve_lp(const double* value, double budget, double* weight);
  /// Flat indices with nonzero weight after the last feasible solve_lp, in
  /// group order: one per group plus the fractional group's second choice.
  const std::vector<std::int64_t>& support() const { return support_; }

  /// Greedy integer repair: starts from the per-group cheapest allowed
  /// choice and applies whole efficiency steps while the budget lasts.
  /// Writes one choice index per group into `choice` when feasible.
  MckpOutcome solve_greedy(const double* value, double budget, int* choice);

 private:
  struct HullPoint {
    std::int64_t index;  // flat choice index
    double cost;
    double value;
  };
  /// One efficiency step between consecutive hull points of a group.
  struct Step {
    double efficiency;  // value drop per unit cost
    double dcost;
    double dvalue;      // negative
    std::int32_t group;
    std::int32_t hull_pos;  // step from hull_pos to hull_pos + 1
  };

  template <typename Allowed>
  void apply_mask(Allowed allowed);
  void check_inputs(const double* value, double budget) const;
  /// Builds every group's lower hull at `value`; returns false when the
  /// cheapest hull points overrun the budget (or a group is fully masked).
  bool build_hulls(const double* value, double budget, double& base_cost, double& base_value);
  /// Fills steps_ from the hulls, sorted by descending efficiency.
  void build_steps();

  std::vector<double> cost_;            // flat
  std::vector<std::int64_t> offset_;    // group g owns [offset_[g], offset_[g + 1])
  std::vector<std::int64_t> by_cost_;   // flat indices, per group by (cost, index)
  std::vector<std::int64_t> order_;     // allowed subset of by_cost_, per group
  std::vector<std::int64_t> order_end_; // end of group g's run in order_
  bool fully_masked_ = false;           // some group has no allowed choice
  std::vector<HullPoint> hull_;         // group g's hull starts at offset_[g]
  std::vector<std::int64_t> hull_size_;
  std::vector<Step> steps_;
  std::vector<std::int64_t> at_;        // walk position per group
  std::vector<double> frac_;            // LP: fraction moved into the next point
  std::vector<std::int64_t> support_;
};

/// Exact LP relaxation via per-group lower convex hulls + global greedy
/// efficiency walk. `allowed[i][m] == false` masks out a choice (used by
/// branch-and-bound child nodes); pass empty `allowed` for no mask.
MckpLpSolution solve_mckp_lp(const std::vector<ChoiceGroup>& groups, double budget,
                             const std::vector<std::vector<char>>& allowed = {});

/// Greedy integer repair (MckpOracle::solve_greedy); always feasible when
/// the cheapest allowed choices fit. Used to seed incumbents.
MckpSolution solve_mckp_greedy(const std::vector<ChoiceGroup>& groups, double budget,
                               const std::vector<std::vector<char>>& allowed = {});

}  // namespace clado::solver
