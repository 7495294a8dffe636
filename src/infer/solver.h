// Per-scenario tomography solver: restrict A to the surviving rows, solve
// the least-squares system with CGLS, and detect the identifiable link
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
// The restricted system depends only on which rows survived, not on the
// observed values, so it is built once per surviving row list
// (RestrictedSystem) and shared by every scenario with that list; only
// CGLS runs per scenario.  Both run on the links the rows cover
// (tomo::CoveredSystem), which is bitwise the full-width computation.
#pragma once

#include <cstddef>
#include <vector>

#include "infer/measurement.h"
#include "linalg/cgls.h"
#include "tomo/path_system.h"

namespace rnt::infer {

struct SolveOptions {
  /// Iteration cap / tolerance (cap 0 = 2 · link count).
  linalg::CglsOptions cgls;
};

/// The surviving system of one row list: its covered-link operator, rank
/// and identifiable links.
struct RestrictedSystem {
  std::vector<std::size_t> rows;  ///< Surviving path indices, in order.
  tomo::CoveredSystem covered;
  linalg::RowSpace space;         ///< Identifiable entries are link ids.
};

/// Builds the restricted system of `rows` (one elimination).
RestrictedSystem restrict_system(const tomo::PathSystem& system,
                                 const std::vector<std::size_t>& rows);

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

/// Solves one scenario's observations against a prepared restricted
/// system; `observations.rows` must equal `restricted.rows`.  With no
/// surviving rows the solution is all-zero with an empty identifiable set.
ScenarioSolution solve_restricted(const RestrictedSystem& restricted,
                                  const Observations& observations,
                                  MeasurementModel model,
                                  const SolveOptions& options = {});

/// One-shot form: restrict_system(observations.rows), then solve.
ScenarioSolution solve_scenario(const tomo::PathSystem& system,
                                const Observations& observations,
                                MeasurementModel model,
                                const SolveOptions& options = {});

}  // namespace rnt::infer
