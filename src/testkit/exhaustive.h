// Exhaustive optimal solver for the budget-constrained ER maximization.
//
// The problem is NP-Hard (Theorem 3), so this brute-force enumerator is for
// tiny instances only: it is the oracle against which tests check RoMe's
// (1 - 1/sqrt(e)) approximation guarantee and MatRoMe's optimality.  It
// lives in the testkit because nothing in production calls it; it keeps
// the core namespace of the selectors it checks.
#pragma once

#include "core/expected_rank.h"
#include "core/selection.h"
#include "tomo/cost_model.h"
#include "tomo/path_system.h"

namespace rnt::core {

/// Enumerates all 2^N subsets of candidate paths (N <= max_paths, default
/// 20) and returns one with maximum engine-evaluated ER among those with
/// PC(R) <= budget.  Ties break toward smaller subsets, then lexicographic.
Selection exhaustive_optimum(const tomo::PathSystem& system,
                             const tomo::CostModel& costs, double budget,
                             const ErEngine& engine,
                             std::size_t max_paths = 20);

}  // namespace rnt::core
