// Per-scenario tomography solver: keep A's surviving rows, solve the
// least-squares system with CGLS, and report the identifiable link
// subspace.
//
// The surviving system is usually rank-deficient (failures remove rows)
// and, under probe noise, inconsistent (redundant rows disagree).  CGLS
// from x0 = 0 converges to the *minimum-norm* least-squares solution
// x† = A⁺ y, which is unique — so the solve is deterministic for a fixed
// observation set regardless of how scenarios are scheduled across
// threads.  Identifiable links (e_j in the surviving row space) have the
// same value in every LS solution, so x† restricted to them is the
// estimator of interest; entries outside the identifiable set are
// min-norm artifacts and are reported but not scored.
//
// Scenarios drawn on one probe subset share its covered system
// (tomo::covered_system(system, subset)): solve_lanes runs each one as a
// lane of a single CGLS pass whose failed rows are masked, and every lane
// is bit for bit the one-lane solve of its own surviving rows
// (linalg/cgls.h says why).  The rank and identifiable set depend only on
// which rows survived, so callers compute them once per surviving row
// list and pass them in: solve_scenarios forks every class from the
// subset's sparse basis (tomo::class_row_spaces), solve_scenario reduces
// its one row list (tomo::row_space_of).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "infer/measurement.h"
#include "linalg/cgls.h"
#include "linalg/elimination.h"
#include "tomo/path_system.h"

namespace rnt::infer {

struct SolveOptions {
  /// Iteration cap / tolerance (cap 0 = 2 · link count).
  linalg::CglsOptions cgls;
};

/// Solution of one scenario's surviving system.
struct ScenarioSolution {
  /// Solver-domain (additive) min-norm LS estimate, one entry per link.
  std::vector<double> additive;
  /// Natural-domain estimate (== additive for delay, exp(-additive) for
  /// loss).  Only entries at identifiable links are meaningful.
  std::vector<double> natural;
  /// Links whose metric is uniquely determined by the surviving rows.
  std::vector<std::size_t> identifiable;
  std::size_t surviving_rows = 0;  ///< Rows of the restricted system.
  std::size_t rank = 0;            ///< Rank of the restricted system.
  std::size_t iterations = 0;      ///< CGLS iterations spent.
  double residual_norm = 0.0;      ///< ‖A x − y‖ at exit.
  bool converged = false;          ///< CGLS hit its tolerance (vs the cap).
};

/// Solves every scenario of `observations` as one lane of a single CGLS
/// run over `covered` == tomo::covered_system(system, subset).  Each
/// scenario's rows must be the paths of `subset` that survived it, in
/// subset order (as synthesize_observations draws them); `spaces[i]` is
/// the row space of observations[i].rows.  A scenario with no surviving
/// rows comes back all-zero, converged, with an empty identifiable set.
std::vector<ScenarioSolution> solve_lanes(
    const tomo::CoveredSystem& covered, const std::vector<std::size_t>& subset,
    std::span<const Observations> observations,
    std::span<const linalg::RowSpace* const> spaces, MeasurementModel model,
    const SolveOptions& options = {});

/// One scenario as a one-lane solve_lanes over its own surviving rows.
ScenarioSolution solve_scenario(const tomo::PathSystem& system,
                                const Observations& observations,
                                MeasurementModel model,
                                const SolveOptions& options = {});

}  // namespace rnt::infer
