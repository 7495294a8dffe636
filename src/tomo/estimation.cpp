#include "tomo/estimation.h"

#include <cmath>
#include <stdexcept>

#include "linalg/elimination.h"
#include "tomo/identifiability.h"

namespace rnt::tomo {

GroundTruth random_delays(std::size_t links, Rng& rng, double lo, double hi) {
  GroundTruth truth;
  truth.link_metrics.resize(links);
  for (double& m : truth.link_metrics) m = rng.uniform(lo, hi);
  return truth;
}

Measurements simulate_measurements(const PathSystem& system,
                                   const std::vector<std::size_t>& subset,
                                   const GroundTruth& truth,
                                   const failures::FailureVector& v,
                                   double noise_std, Rng& rng) {
  if (truth.link_metrics.size() != system.link_count()) {
    throw std::invalid_argument("simulate_measurements: truth size mismatch");
  }
  Measurements out;
  for (std::size_t q : subset) {
    if (!system.path_survives(q, v)) continue;
    double y = 0.0;
    for (graph::EdgeId l : system.path(q).links) {
      y += truth.link_metrics[l];
    }
    if (noise_std > 0.0) y += rng.normal(0.0, noise_std);
    out.rows.push_back(q);
    out.values.push_back(y);
  }
  return out;
}

EstimationResult estimate_link_metrics(const PathSystem& system,
                                       const Measurements& measurements,
                                       const GroundTruth& truth) {
  EstimationResult result;
  result.estimates.assign(system.link_count(), 0.0);
  if (measurements.rows.empty()) return result;
  if (measurements.rows.size() != measurements.values.size()) {
    throw std::invalid_argument("estimate_link_metrics: size mismatch");
  }

  // Identifiability is a property of the full surviving row space.
  result.identifiable = identifiable_links(system, measurements.rows);

  // Solve a maximal independent subsystem (consistent by construction).
  const auto basis_positions = linalg::independent_row_subset(
      system.matrix().select_rows(measurements.rows));
  linalg::Matrix a(0, 0);
  std::vector<double> y;
  for (std::size_t pos : basis_positions) {
    a.append_row(system.row(measurements.rows[pos]));
    y.push_back(measurements.values[pos]);
  }
  const auto x = linalg::solve(a, y);
  if (!x.has_value()) {
    // Cannot happen for an independent row set; defensive fallback.
    result.identifiable.clear();
    return result;
  }
  result.estimates = *x;

  double total = 0.0;
  double worst = 0.0;
  for (std::size_t l : result.identifiable) {
    const double err = std::abs(result.estimates[l] - truth.link_metrics[l]);
    total += err;
    worst = std::max(worst, err);
  }
  if (!result.identifiable.empty()) {
    result.mean_abs_error = total / static_cast<double>(result.identifiable.size());
    result.max_abs_error = worst;
  }
  return result;
}

EstimationResult estimate_link_metrics_lsq(const PathSystem& system,
                                           const Measurements& measurements,
                                           const GroundTruth& truth) {
  EstimationResult result;
  result.estimates.assign(system.link_count(), 0.0);
  if (measurements.rows.empty()) return result;
  if (measurements.rows.size() != measurements.values.size()) {
    throw std::invalid_argument("estimate_link_metrics_lsq: size mismatch");
  }
  // Sparse operator over the surviving rows and the links they cover;
  // CGLS to the min-norm LS point.
  const CoveredSystem covered = covered_system(system, measurements.rows);
  result.identifiable = row_space_of(system, measurements.rows).identifiable;
  result.estimates = least_squares(covered, measurements.values).x;

  double total = 0.0;
  double worst = 0.0;
  for (std::size_t l : result.identifiable) {
    const double err = std::abs(result.estimates[l] - truth.link_metrics[l]);
    total += err;
    worst = std::max(worst, err);
  }
  if (!result.identifiable.empty()) {
    result.mean_abs_error =
        total / static_cast<double>(result.identifiable.size());
    result.max_abs_error = worst;
  }
  return result;
}

}  // namespace rnt::tomo
