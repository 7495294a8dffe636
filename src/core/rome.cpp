#include "core/rome.h"

#include <limits>
#include <queue>
#include <vector>

#include "core/selectors/selector.h"

namespace rnt::core {

using selector_detail::kWeightEps;
using selector_detail::weight_of;

Selection rome(const tomo::PathSystem& system, const tomo::CostModel& costs,
               double budget, const ErEngine& engine, RomeStats* stats) {
  const std::vector<double> cost = costs.path_costs(system);
  Selection single = selector_detail::best_single(
      system, cost, budget, engine,
      stats != nullptr ? &stats->gain_evaluations : nullptr);

  auto acc = engine.make_accumulator();
  Selection greedy;

  // Lazy-greedy heap of (possibly stale) cost-benefit weights.
  struct Entry {
    double weight;
    std::size_t path;
    bool operator<(const Entry& o) const { return weight < o.weight; }
  };
  std::priority_queue<Entry> heap;
  for (std::size_t q = 0; q < system.path_count(); ++q) {
    const double g = acc->gain(q);
    if (stats != nullptr) ++stats->gain_evaluations;
    heap.push({weight_of(g, cost[q]), q});
  }

  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    // Refresh the weight against the current selection.
    const double g = acc->gain(top.path);
    if (stats != nullptr) ++stats->gain_evaluations;
    const double w = weight_of(g, cost[top.path]);
    if (!heap.empty() && w + kWeightEps < heap.top().weight) {
      heap.push({w, top.path});  // Stale; requeue with the fresh weight.
      continue;
    }
    // top.path is the true argmax (submodularity: no other weight can have
    // grown).  Algorithm 1: add if it fits the budget, drop it either way.
    if (greedy.cost + cost[top.path] <= budget) {
      acc->add(top.path);
      greedy.paths.push_back(top.path);
      greedy.cost += cost[top.path];
      if (stats != nullptr) ++stats->iterations;
    }
  }
  greedy.objective = acc->value();

  return greedy.objective >= single.objective ? greedy : single;
}

Selection rome_eager(const tomo::PathSystem& system,
                     const tomo::CostModel& costs, double budget,
                     const ErEngine& engine, RomeStats* stats) {
  const std::vector<double> cost = costs.path_costs(system);
  Selection single = selector_detail::best_single(
      system, cost, budget, engine,
      stats != nullptr ? &stats->gain_evaluations : nullptr);

  auto acc = engine.make_accumulator();
  Selection greedy;
  std::vector<std::size_t> remaining(system.path_count());
  for (std::size_t q = 0; q < remaining.size(); ++q) remaining[q] = q;

  while (!remaining.empty()) {
    double best_w = -std::numeric_limits<double>::infinity();
    std::size_t best_pos = 0;
    for (std::size_t pos = 0; pos < remaining.size(); ++pos) {
      const std::size_t q = remaining[pos];
      const double g = acc->gain(q);
      if (stats != nullptr) ++stats->gain_evaluations;
      const double w = weight_of(g, cost[q]);
      if (w > best_w) {
        best_w = w;
        best_pos = pos;
      }
    }
    const std::size_t q_max = remaining[best_pos];
    if (greedy.cost + cost[q_max] <= budget) {
      acc->add(q_max);
      greedy.paths.push_back(q_max);
      greedy.cost += cost[q_max];
      if (stats != nullptr) ++stats->iterations;
    }
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best_pos));
  }
  greedy.objective = acc->value();

  return greedy.objective >= single.objective ? greedy : single;
}

}  // namespace rnt::core
