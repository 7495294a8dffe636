// SelectPath — the failure-agnostic state-of-the-art baseline (Chen et al.,
// SIGCOMM'04), as used for comparison in the paper's evaluation.
//
// The original algorithm picks an arbitrary maximal set of linearly
// independent paths (a basis) using Cholesky decomposition of the path Gram
// matrix.  Any method that keeps, in scan order, each path independent of
// the paths kept before it chooses the same basis, so this one reduces the
// paths' link lists through the sparse incremental basis every other rank
// uses.  Because no prior algorithm handles a probing budget, the paper
// adapts it greedily (Section VI-B): if the basis is under budget, add
// remaining candidate paths in increasing cost order while the budget
// allows; if it exceeds the budget, drop basis paths in decreasing cost
// order until the constraint is met.
#pragma once

#include "core/selection.h"
#include "tomo/cost_model.h"
#include "tomo/path_system.h"
#include "util/rng.h"

namespace rnt::core {

/// The original SelectPath: an arbitrary basis of the candidate set, the
/// in-order maximal independent subset of the paths scanned in a random
/// order drawn from `rng` ("arbitrary" in the paper; randomizing the order
/// models the algorithm's indifference).  Ignores costs.
Selection select_path_basis(const tomo::PathSystem& system, Rng& rng);

/// Deterministic variant scanning paths in id order (used in tests).
Selection select_path_basis_ordered(const tomo::PathSystem& system);

/// The paper's budget-fitted adaptation of SelectPath.
Selection select_path_budgeted(const tomo::PathSystem& system,
                               const tomo::CostModel& costs, double budget,
                               Rng& rng);

}  // namespace rnt::core
