#include "core/matrome.h"

#include <algorithm>
#include <numeric>

#include "linalg/incremental_basis.h"

namespace rnt::core {

Selection max_weight_independent_set(const tomo::PathSystem& system,
                                     const std::vector<double>& weights,
                                     std::size_t max_paths) {
  std::vector<std::size_t> order(system.path_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable sort keeps path-id order among ties, making runs reproducible.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  });

  linalg::IncrementalBasis basis(system.link_count());
  Selection out;
  for (std::size_t q : order) {
    if (out.paths.size() >= max_paths) break;
    if (basis.try_add(system.unit_row(q))) {
      out.paths.push_back(q);
      out.cost += 1.0;  // Unit probing cost in the matroid setting.
      out.objective += weights[q];
    }
  }
  return out;
}

Selection matrome(const tomo::PathSystem& system,
                  const failures::FailureModel& model,
                  std::optional<std::size_t> max_paths) {
  std::vector<double> ea(system.path_count());
  for (std::size_t q = 0; q < system.path_count(); ++q) {
    ea[q] = system.expected_availability(q, model);
  }
  const std::size_t budget = max_paths.value_or(system.full_rank());
  return max_weight_independent_set(system, ea, budget);
}

}  // namespace rnt::core
