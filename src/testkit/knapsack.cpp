#include "testkit/knapsack.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/elimination.h"

namespace rnt::core {

KnapsackResult knapsack(const std::vector<double>& values,
                        const std::vector<double>& weights, double capacity,
                        std::size_t resolution) {
  if (values.size() != weights.size()) {
    throw std::invalid_argument("knapsack: values/weights size mismatch");
  }
  if (resolution == 0) {
    throw std::invalid_argument("knapsack: resolution must be positive");
  }
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("knapsack: negative weight");
  }
  KnapsackResult result;
  if (capacity < 0.0 || values.empty()) return result;
  if (capacity == 0.0) {
    // Only zero-weight items with positive value fit.
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (weights[i] == 0.0 && values[i] > 0.0) {
        result.items.push_back(i);
        result.value += values[i];
      }
    }
    return result;
  }

  const double step = capacity / static_cast<double>(resolution);

  // DP at a given unit-weight assignment; returns the reconstructed set.
  auto solve_units = [&](const std::vector<std::size_t>& w) {
    KnapsackResult r;
    const std::size_t cap = resolution;
    std::vector<double> best(cap + 1, 0.0);
    std::vector<bool> chosen(values.size() * (cap + 1), false);
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (w[i] > cap) continue;
      for (std::size_t c = cap + 1; c-- > w[i];) {
        const double candidate = best[c - w[i]] + values[i];
        if (candidate > best[c] + 1e-15) {
          best[c] = candidate;
          chosen[i * (cap + 1) + c] = true;
        }
      }
    }
    std::size_t c = cap;
    for (std::size_t i = values.size(); i-- > 0;) {
      if (chosen[i * (cap + 1) + c]) {
        r.items.push_back(i);
        r.value += values[i];
        r.weight += weights[i];
        c -= w[i];
      }
    }
    std::reverse(r.items.begin(), r.items.end());
    return r;
  };

  // Two roundings: ceil units are always feasible in true weights;
  // nearest units are tighter (exact-fit sets stay feasible) but must be
  // validated against the true capacity after reconstruction.
  std::vector<std::size_t> ceil_units(values.size());
  std::vector<std::size_t> near_units(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ceil_units[i] =
        static_cast<std::size_t>(std::ceil(weights[i] / step - 1e-12));
    near_units[i] =
        static_cast<std::size_t>(std::llround(weights[i] / step));
  }
  result = solve_units(ceil_units);
  const KnapsackResult near = solve_units(near_units);
  if (near.weight <= capacity + 1e-9 && near.value > result.value) {
    result = near;
  }
  return result;
}

KnapsackResult max_expected_availability(const tomo::PathSystem& system,
                                         const failures::FailureModel& model,
                                         const tomo::CostModel& costs,
                                         double budget,
                                         std::size_t resolution) {
  std::vector<double> ea(system.path_count());
  for (std::size_t q = 0; q < ea.size(); ++q) {
    ea[q] = system.expected_availability(q, model);
  }
  return knapsack(ea, costs.path_costs(system), budget, resolution);
}

Lemma11Result lemma11_condition(const tomo::PathSystem& system,
                                const failures::FailureModel& model,
                                const tomo::CostModel& costs, double budget,
                                std::size_t max_exhaustive) {
  Lemma11Result out;
  out.solution = max_expected_availability(system, model, costs, budget);
  out.knapsack_solution_independent =
      system.rank_of(out.solution.items) == out.solution.items.size();

  const std::vector<double> cost = costs.path_costs(system);
  std::vector<double> ea(system.path_count());
  for (std::size_t q = 0; q < ea.size(); ++q) {
    ea[q] = system.expected_availability(q, model);
  }

  if (system.path_count() <= max_exhaustive) {
    // Exhaustive uniqueness check.
    std::size_t optima = 0;
    const std::uint64_t total = std::uint64_t{1} << system.path_count();
    for (std::uint64_t mask = 0; mask < total; ++mask) {
      double value = 0.0;
      double weight = 0.0;
      for (std::size_t i = 0; i < system.path_count(); ++i) {
        if ((mask >> i) & 1) {
          value += ea[i];
          weight += cost[i];
        }
      }
      if (weight <= budget + 1e-12 &&
          value >= out.solution.value - 1e-12) {
        ++optima;
      }
    }
    out.knapsack_solution_unique = optima == 1;
  } else {
    // Probe: excluding any chosen item must strictly lower the optimum.
    out.knapsack_solution_unique = true;
    for (std::size_t excluded : out.solution.items) {
      std::vector<double> probe_ea = ea;
      probe_ea[excluded] = -1.0;  // Never chosen.
      const auto probe = knapsack(probe_ea, cost, budget);
      if (probe.value >= out.solution.value - 1e-12) {
        out.knapsack_solution_unique = false;
        break;
      }
    }
  }
  return out;
}

}  // namespace rnt::core
