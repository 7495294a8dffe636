#include "core/selectors/branch_and_bound.h"

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rnt::core {

namespace {

// Feasibility tolerance of the reference enumeration
// (testkit::exhaustive_best_selection): cost <= budget + kBudgetTol.
constexpr double kBudgetTol = 1e-9;

// The incumbent's tie window is 1e-12; pruning at 1e-9 below it leaves
// three orders of magnitude of headroom for float slop in the bound
// (summation-order noise, the bound engine's own rounding), so a pruned
// subtree provably contains no incumbent update.
constexpr double kPruneMargin = 1e-9;

// Mid-tree cost pruning accumulates costs in DFS (descending-index)
// order while the reference sums ascending; the reorder error for <= 16
// addends is ~1e-12, so a branch is cut early only when it is over
// budget by more than this slack.  Leaves always re-test feasibility
// with the exact ascending-order sum.
constexpr double kCostSlack = 1e-6;

/// Incumbent-update predicate, verbatim from the testkit oracle: larger
/// objective wins; equal (within 1e-12) objectives break toward fewer
/// paths, then the smaller mask.
bool better(double objective, std::uint64_t mask, double best_objective,
            std::uint64_t best_mask) {
  if (objective > best_objective + 1e-12) return true;
  if (objective < best_objective - 1e-12) return false;
  const int size = std::popcount(mask);
  const int best_size = std::popcount(best_mask);
  if (size != best_size) return size < best_size;
  return mask < best_mask;
}

struct Search {
  const std::vector<double>& cost;
  double budget;
  const ErEngine& objective;
  const ErEngine& bound;
  std::size_t paths;
  std::size_t max_nodes;

  SelectorStats stats{};
  double best_objective = 0.0;
  double best_cost = 0.0;
  std::uint64_t best_mask = 0;
  std::vector<std::size_t> scratch{};

  /// Committed paths of `mask` in ascending index order.
  const std::vector<std::size_t>& subset_of(std::uint64_t mask) {
    scratch.clear();
    for (std::size_t i = 0; i < paths; ++i) {
      if ((mask >> i) & 1) scratch.push_back(i);
    }
    return scratch;
  }

  /// Optimistic value of the subtree: the monotone bound engine on the
  /// committed paths plus every undecided path that could still join a
  /// feasible completion.  Undecided paths are the indices below `bit`.
  double upper_bound(std::uint64_t mask, std::size_t bit, double inc_cost) {
    scratch.clear();
    for (std::size_t i = 0; i < paths; ++i) {
      const bool undecided = i < bit;
      if (undecided) {
        if (inc_cost + cost[i] <= budget + kBudgetTol + kCostSlack) {
          scratch.push_back(i);
        }
      } else if ((mask >> i) & 1) {
        scratch.push_back(i);
      }
    }
    ++stats.bound_evaluations;
    return bound.evaluate(scratch);
  }

  void leaf(std::uint64_t mask) {
    if (mask == 0) return;  // The reference never evaluates the empty set.
    double c = 0.0;
    for (std::size_t i = 0; i < paths; ++i) {
      if ((mask >> i) & 1) c += cost[i];
    }
    if (c > budget + kBudgetTol) return;
    ++stats.evaluate_calls;
    const double objective_value = objective.evaluate(subset_of(mask));
    if (better(objective_value, mask, best_objective, best_mask)) {
      best_objective = objective_value;
      best_cost = c;
      best_mask = mask;
      ++stats.iterations;
    }
  }

  /// Decides path indices from high to low, exclude branch first, so
  /// leaves are reached in exactly ascending-mask order — the reference
  /// enumeration order, which the tolerance-windowed tie-break depends
  /// on.  `bit` is the count of still-undecided low indices.
  void dfs(std::size_t bit, std::uint64_t mask, double inc_cost) {
    if (stats.nodes_explored >= max_nodes) {
      throw std::runtime_error(
          "branch-and-bound: node cap exceeded after " +
          std::to_string(stats.nodes_explored) +
          " nodes (raise BranchAndBoundOptions::max_nodes or shrink the "
          "instance)");
    }
    ++stats.nodes_explored;
    if (bit == 0) {
      leaf(mask);
      return;
    }
    if (upper_bound(mask, bit, inc_cost) < best_objective - kPruneMargin) {
      ++stats.nodes_pruned;
      return;
    }
    dfs(bit - 1, mask, inc_cost);
    const std::size_t q = bit - 1;
    if (inc_cost + cost[q] <= budget + kBudgetTol + kCostSlack) {
      dfs(bit - 1, mask | (std::uint64_t{1} << q), inc_cost + cost[q]);
    } else {
      ++stats.nodes_pruned;
    }
  }
};

}  // namespace

Selection BranchAndBoundSelector::select(const tomo::PathSystem& system,
                                         const tomo::CostModel& costs,
                                         double budget, const ErEngine& engine,
                                         SelectorStats* stats) const {
  const std::size_t n = system.path_count();
  if (n > options_.max_paths) {
    throw std::invalid_argument(
        "branch-and-bound: " + std::to_string(n) +
        " candidate paths exceed max_paths=" +
        std::to_string(options_.max_paths) + " (the search is exponential)");
  }
  const std::vector<double> cost = costs.path_costs(system);
  const ErEngine& bound =
      options_.bound_engine != nullptr ? *options_.bound_engine : engine;

  Search search{.cost = cost,
                .budget = budget,
                .objective = engine,
                .bound = bound,
                .paths = n,
                .max_nodes = options_.max_nodes};
  search.dfs(n, 0, 0.0);

  Selection best;
  best.paths = search.subset_of(search.best_mask);
  best.cost = search.best_cost;
  best.objective = search.best_objective;
  if (stats != nullptr) {
    stats->gain_evaluations += search.stats.gain_evaluations;
    stats->evaluate_calls += search.stats.evaluate_calls;
    stats->bound_evaluations += search.stats.bound_evaluations;
    stats->iterations += search.stats.iterations;
    stats->nodes_explored += search.stats.nodes_explored;
    stats->nodes_pruned += search.stats.nodes_pruned;
  }
  return best;
}

}  // namespace rnt::core
