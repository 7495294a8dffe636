#include "core/selectors/stochastic_greedy.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace rnt::core {

Selection StochasticGreedySelector::select(const tomo::PathSystem& system,
                                           const tomo::CostModel& costs,
                                           double budget,
                                           const ErEngine& engine,
                                           SelectorStats* stats) const {
  const std::vector<double> cost = costs.path_costs(system);
  Selection single = selector_detail::best_single(
      system, cost, budget, engine,
      stats != nullptr ? &stats->gain_evaluations : nullptr);

  const std::size_t n = system.path_count();
  const std::size_t sample_size =
      sample_size_ > 0 ? sample_size_ : std::max<std::size_t>(3, n / 4);

  auto acc = engine.make_accumulator();
  Selection greedy;
  Rng rng(seed_);
  std::vector<std::size_t> remaining(n);
  for (std::size_t q = 0; q < n; ++q) remaining[q] = q;

  while (!remaining.empty()) {
    // Draw this round's candidate positions and scan them in ascending
    // order with a strict `>` so equal weights keep the lowest path
    // index — with the sample covering everything this is Algorithm 1's
    // textbook scan (rome_eager).
    std::vector<std::size_t> positions;
    if (sample_size >= remaining.size()) {
      positions.resize(remaining.size());
      for (std::size_t pos = 0; pos < positions.size(); ++pos) {
        positions[pos] = pos;
      }
    } else {
      positions = rng.sample_without_replacement(remaining.size(), sample_size);
      std::sort(positions.begin(), positions.end());
    }

    double best_w = -std::numeric_limits<double>::infinity();
    std::size_t best_pos = 0;
    for (std::size_t pos : positions) {
      const std::size_t q = remaining[pos];
      const double g = acc->gain(q);
      if (stats != nullptr) ++stats->gain_evaluations;
      const double w = selector_detail::weight_of(g, cost[q]);
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
