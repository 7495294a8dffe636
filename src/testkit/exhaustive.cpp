#include "testkit/exhaustive.h"

#include <stdexcept>

namespace rnt::core {

Selection exhaustive_optimum(const tomo::PathSystem& system,
                             const tomo::CostModel& costs, double budget,
                             const ErEngine& engine, std::size_t max_paths) {
  const std::size_t n = system.path_count();
  if (n > max_paths) {
    throw std::invalid_argument(
        "exhaustive_optimum: too many candidate paths for brute force");
  }
  const std::vector<double> cost = costs.path_costs(system);
  Selection best;
  best.objective = -1.0;
  const std::uint64_t total = std::uint64_t{1} << n;
  std::vector<std::size_t> subset;
  for (std::uint64_t mask = 0; mask < total; ++mask) {
    subset.clear();
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        subset.push_back(i);
        c += cost[i];
      }
    }
    if (c > budget) continue;
    const double er = engine.evaluate(subset);
    const bool better =
        er > best.objective + 1e-12 ||
        (er > best.objective - 1e-12 && subset.size() < best.paths.size());
    if (better) {
      best.paths = subset;
      best.cost = c;
      best.objective = er;
    }
  }
  return best;
}

}  // namespace rnt::core
