#include "core/rome.h"

#include <limits>
#include <queue>

#include "core/selectors/stochastic_greedy.h"

namespace rnt::core {

using selector_detail::kWeightEps;
using selector_detail::weight_of;

Selection rome(const tomo::PathSystem& system, const tomo::CostModel& costs,
               double budget, const ErEngine& engine, SelectorStats* stats) {
  SelectorStats local;
  std::vector<double> weights;
  std::size_t best_single = 0;
  return rome(system, costs.path_costs(system), budget, engine,
              stats != nullptr ? *stats : local, weights, best_single);
}

Selection rome(const tomo::PathSystem& system, const std::vector<double>& cost,
               double budget, const ErEngine& engine, SelectorStats& stats,
               std::vector<double>& weights, std::size_t& best_single) {
  const std::size_t n = system.path_count();
  const Selection single = selector_detail::best_single(
      system, cost, budget, engine, &stats.gain_evaluations);
  best_single = single.paths.empty() ? n : single.paths.front();

  auto acc = engine.make_accumulator();
  weights.assign(n, 0.0);
  std::vector<LazySeed> seeds(n);
  for (std::size_t q = 0; q < n; ++q) {
    const double g = acc->gain(q);
    ++stats.gain_evaluations;
    weights[q] = weight_of(g, cost[q]);
    seeds[q] = {weights[q], q};
  }
  const Selection greedy =
      rome_lazy(*acc, cost, budget, seeds,
                -std::numeric_limits<double>::infinity(), weights, stats);
  return greedy.objective >= single.objective ? greedy : single;
}

Selection rome_lazy(ErAccumulator& acc, const std::vector<double>& cost,
                    double budget, const std::vector<LazySeed>& seeds,
                    double min_gain, std::vector<double>& weights,
                    SelectorStats& stats) {
  // One push per seed, in order: heap construction order decides which of
  // two equal weights pops first, and callers rely on that order.
  std::priority_queue<LazySeed> heap;
  for (const LazySeed& seed : seeds) heap.push(seed);

  Selection greedy;
  while (!heap.empty()) {
    const LazySeed top = heap.top();
    heap.pop();
    // Refresh the weight against the current selection.
    const double g = acc.gain(top.path);
    ++stats.gain_evaluations;
    const double w = weight_of(g, cost[top.path]);
    weights[top.path] = w;
    if (!heap.empty() && w + kWeightEps < heap.top().weight) {
      heap.push({w, top.path});  // Stale; requeue with the fresh weight.
      continue;
    }
    // top.path is the true argmax (submodularity: no other weight can have
    // grown).  Algorithm 1: add if it fits the budget, drop it either way.
    if (g > min_gain && greedy.cost + cost[top.path] <= budget) {
      acc.add(top.path);
      greedy.paths.push_back(top.path);
      greedy.cost += cost[top.path];
      ++stats.iterations;
    }
  }
  greedy.objective = acc.value();
  return greedy;
}

Selection rome_eager(const tomo::PathSystem& system,
                     const tomo::CostModel& costs, double budget,
                     const ErEngine& engine, SelectorStats* stats) {
  return StochasticGreedySelector(/*seed=*/1, system.path_count())
      .select(system, costs, budget, engine, stats);
}

}  // namespace rnt::core
