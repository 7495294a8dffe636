#include "infer/solver.h"

#include <stdexcept>

namespace rnt::infer {

std::vector<ScenarioSolution> solve_lanes(
    const tomo::CoveredSystem& covered, const std::vector<std::size_t>& subset,
    std::span<const Observations> observations,
    std::span<const linalg::RowSpace* const> spaces, MeasurementModel model,
    const SolveOptions& options) {
  const std::size_t lanes = observations.size();
  if (spaces.size() != lanes) {
    throw std::invalid_argument("solve_lanes: one row space per scenario");
  }
  if (covered.matrix.rows() != subset.size()) {
    throw std::invalid_argument("solve_lanes: covered system is not the subset's");
  }
  // Lane-major right-hand sides: a surviving path is the next observed row,
  // so one walk down the subset places every observation.
  std::vector<double> values(subset.size() * lanes, 0.0);
  std::vector<double> mask(subset.size() * lanes, 0.0);
  for (std::size_t l = 0; l < lanes; ++l) {
    const Observations& obs = observations[l];
    if (obs.rows.size() != obs.values.size()) {
      throw std::invalid_argument("solve_lanes: rows/values size mismatch");
    }
    std::size_t next = 0;
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (next < obs.rows.size() && obs.rows[next] == subset[i]) {
        values[i * lanes + l] = obs.values[next++];
        mask[i * lanes + l] = 1.0;
      }
    }
    if (next != obs.rows.size()) {
      throw std::invalid_argument(
          "solve_lanes: observations are not on the subset's rows");
    }
  }

  std::vector<linalg::CglsResult> cgls =
      tomo::least_squares_lanes(covered, values, mask, lanes, options.cgls);
  std::vector<ScenarioSolution> solutions(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ScenarioSolution& solution = solutions[l];
    solution.surviving_rows = observations[l].rows.size();
    solution.rank = spaces[l]->rank;
    solution.identifiable = spaces[l]->identifiable;
    solution.additive = std::move(cgls[l].x);
    solution.iterations = cgls[l].iterations;
    solution.residual_norm = cgls[l].residual_norm;
    solution.converged = cgls[l].converged;
    solution.natural.resize(solution.additive.size());
    for (std::size_t j = 0; j < solution.additive.size(); ++j) {
      solution.natural[j] = to_natural(model, solution.additive[j]);
    }
  }
  return solutions;
}

ScenarioSolution solve_scenario(const tomo::PathSystem& system,
                                const Observations& observations,
                                MeasurementModel model,
                                const SolveOptions& options) {
  const tomo::CoveredSystem covered =
      tomo::covered_system(system, observations.rows);
  const linalg::RowSpace space = tomo::row_space(covered);
  const linalg::RowSpace* spaces[] = {&space};
  return std::move(solve_lanes(covered, observations.rows, {&observations, 1},
                               spaces, model, options)
                       .front());
}

}  // namespace rnt::infer
