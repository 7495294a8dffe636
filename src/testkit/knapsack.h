// Exact 0/1 knapsack machinery tied to the paper's theory:
//
//  * Theorem 3 proves NP-hardness by reducing Knapsack to the ER problem on
//    disjoint single-link paths — the test suite replays that reduction
//    against this exact solver.
//  * Lemma 11 gives a sufficient condition for LSR's regret bound: the
//    Knapsack maximizer of EA(R) under the budget must be unique and
//    linearly independent.  lemma11_condition() evaluates it.
//
// It lives in the testkit because nothing in production calls it; it keeps
// the core namespace of the selection problem it reasons about.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/selection.h"
#include "failures/failure_model.h"
#include "tomo/cost_model.h"
#include "tomo/path_system.h"

namespace rnt::core {

/// Exact 0/1 knapsack: maximize sum of values subject to sum of weights
/// <= capacity.  Weights and capacity are nonnegative reals discretized on
/// a grid of `resolution` cost units (exact when all weights are integer
/// multiples of the grid step).  Branch-and-bound free: plain DP,
/// O(items * resolution).
struct KnapsackResult {
  std::vector<std::size_t> items;  ///< Chosen item indices, ascending.
  double value = 0.0;
  double weight = 0.0;
};

KnapsackResult knapsack(const std::vector<double>& values,
                        const std::vector<double>& weights, double capacity,
                        std::size_t resolution = 10000);

/// The Knapsack relaxation of the paper's problem: maximize the sum of
/// expected availabilities EA(q) under the probing budget (ignoring linear
/// dependence).  This upper-bounds the ER maximum.
KnapsackResult max_expected_availability(const tomo::PathSystem& system,
                                         const failures::FailureModel& model,
                                         const tomo::CostModel& costs,
                                         double budget,
                                         std::size_t resolution = 10000);

/// Result of checking Lemma 11's sufficient condition.
struct Lemma11Result {
  bool knapsack_solution_independent = false;
  bool knapsack_solution_unique = false;  ///< Via value-gap probe.
  bool holds() const {
    return knapsack_solution_independent && knapsack_solution_unique;
  }
  KnapsackResult solution;
};

/// Checks Lemma 11: the EA-knapsack maximizer is linearly independent and
/// unique.  Uniqueness is verified exhaustively for small instances
/// (<= max_exhaustive paths) and reported as true-with-probe otherwise
/// (re-solving with each chosen item excluded must strictly lower the
/// value).
Lemma11Result lemma11_condition(const tomo::PathSystem& system,
                                const failures::FailureModel& model,
                                const tomo::CostModel& costs, double budget,
                                std::size_t max_exhaustive = 20);

}  // namespace rnt::core
