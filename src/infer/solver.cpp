#include "infer/solver.h"

#include <stdexcept>

namespace rnt::infer {

RestrictedSystem restrict_system(const tomo::PathSystem& system,
                                 const std::vector<std::size_t>& rows) {
  RestrictedSystem out;
  out.rows = rows;
  out.covered = tomo::covered_system(system, rows);
  out.space = tomo::row_space(out.covered);
  return out;
}

ScenarioSolution solve_restricted(const RestrictedSystem& restricted,
                                  const Observations& observations,
                                  MeasurementModel model,
                                  const SolveOptions& options) {
  if (observations.rows.size() != observations.values.size()) {
    throw std::invalid_argument("solve_scenario: rows/values size mismatch");
  }
  if (observations.rows != restricted.rows) {
    throw std::invalid_argument(
        "solve_restricted: observations are not on the restricted rows");
  }
  const std::size_t links = restricted.covered.link_count;
  ScenarioSolution solution;
  solution.surviving_rows = observations.rows.size();
  if (observations.rows.empty()) {
    // Nothing survived: nothing identifiable, converged trivially.
    solution.additive.assign(links, 0.0);
    solution.natural.assign(links, to_natural(model, 0.0));
    solution.converged = true;
    return solution;
  }

  solution.rank = restricted.space.rank;
  solution.identifiable = restricted.space.identifiable;
  linalg::CglsResult cgls = tomo::least_squares(
      restricted.covered, observations.values, options.cgls);
  solution.additive = std::move(cgls.x);
  solution.iterations = cgls.iterations;
  solution.residual_norm = cgls.residual_norm;
  solution.converged = cgls.converged;
  solution.natural.resize(links);
  for (std::size_t l = 0; l < links; ++l) {
    solution.natural[l] = to_natural(model, solution.additive[l]);
  }
  return solution;
}

ScenarioSolution solve_scenario(const tomo::PathSystem& system,
                                const Observations& observations,
                                MeasurementModel model,
                                const SolveOptions& options) {
  return solve_restricted(restrict_system(system, observations.rows),
                          observations, model, options);
}

}  // namespace rnt::infer
