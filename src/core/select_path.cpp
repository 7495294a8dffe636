#include "core/select_path.h"

#include <algorithm>
#include <numeric>

#include "linalg/cholesky.h"

namespace rnt::core {

namespace {

Selection basis_in_order(const tomo::PathSystem& system,
                         const std::vector<std::size_t>& order) {
  std::vector<std::size_t> all(system.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Selection out;
  out.paths = linalg::cholesky_basis(tomo::path_matrix(system, all), order);
  out.cost = static_cast<double>(out.paths.size());
  out.objective = static_cast<double>(out.paths.size());
  return out;
}

}  // namespace

Selection select_path_basis(const tomo::PathSystem& system, Rng& rng) {
  std::vector<std::size_t> order(system.path_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  return basis_in_order(system, order);
}

Selection select_path_basis_ordered(const tomo::PathSystem& system) {
  std::vector<std::size_t> order(system.path_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  return basis_in_order(system, order);
}

Selection select_path_budgeted(const tomo::PathSystem& system,
                               const tomo::CostModel& costs, double budget,
                               Rng& rng) {
  Selection basis = select_path_basis(system, rng);
  const std::vector<double> cost = costs.path_costs(system);

  Selection out;
  out.paths = basis.paths;
  out.cost = 0.0;
  for (std::size_t q : out.paths) out.cost += cost[q];

  if (out.cost > budget) {
    // Over budget: drop the most expensive basis paths first.
    std::sort(out.paths.begin(), out.paths.end(),
              [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
    while (!out.paths.empty() && out.cost > budget) {
      out.cost -= cost[out.paths.front()];
      out.paths.erase(out.paths.begin());
    }
  } else {
    // Under budget: add non-basis paths, cheapest first.
    std::vector<bool> chosen(system.path_count(), false);
    for (std::size_t q : out.paths) chosen[q] = true;
    std::vector<std::size_t> rest;
    for (std::size_t q = 0; q < system.path_count(); ++q) {
      if (!chosen[q]) rest.push_back(q);
    }
    std::sort(rest.begin(), rest.end(),
              [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
    for (std::size_t q : rest) {
      if (out.cost + cost[q] > budget) continue;
      out.paths.push_back(q);
      out.cost += cost[q];
    }
  }
  out.objective = static_cast<double>(out.paths.size());
  return out;
}

}  // namespace rnt::core
