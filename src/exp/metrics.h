// Evaluation metrics (Section VI-A): rank and link identifiability of a
// selected path set under sampled failure scenarios, with the paper's
// average / standard deviation / CDF reporting, plus the rank-loss and
// identifiability-loss variants of Figures 8-9.
#pragma once

#include <cstddef>
#include <vector>

#include "core/selection.h"
#include "failures/failure_model.h"
#include "tomo/path_system.h"
#include "util/rng.h"
#include "util/stats.h"

namespace rnt::exp {

/// Distribution of a robustness metric over failure scenarios.
struct MetricDistribution {
  RunningStats stats;
  EmpiricalDistribution distribution;

  void add(double x) {
    stats.add(x);
    distribution.add(x);
  }
};

/// Scenario-sampled robustness of one selection.
struct SelectionEvaluation {
  MetricDistribution rank;
  MetricDistribution identifiability;  ///< Only filled when requested.
  std::size_t no_failure_rank = 0;
  std::size_t no_failure_identifiability = 0;
};

/// Options for evaluate_selection.
struct EvalOptions {
  std::size_t scenarios = 500;      ///< Paper: 500 per monitor set.
  bool identifiability = false;     ///< Also compute link identifiability.
};

/// Samples failure scenarios from the model and measures the surviving
/// rank (and optionally identifiability) of the selection in each.
/// Scenarios that leave the same surviving rows share one elimination
/// (tomo::RowClasses, for this call only); accumulation stays in scenario
/// order, so the result equals the per-scenario loop exactly.
SelectionEvaluation evaluate_selection(const tomo::PathSystem& system,
                                       const std::vector<std::size_t>& subset,
                                       const failures::FailureModel& model,
                                       const EvalOptions& options, Rng& rng);

/// Rank loss per scenario: rank(subset, no failures) - rank(subset, v).
/// Identifiability loss analogously.  Figures 8-9's metrics.  Eliminates
/// once per surviving-row class, as evaluate_selection does.
struct LossEvaluation {
  RunningStats rank_loss;
  RunningStats identifiability_loss;
};

LossEvaluation evaluate_loss(const tomo::PathSystem& system,
                             const std::vector<std::size_t>& subset,
                             const failures::FailureModel& model,
                             std::size_t scenarios, bool identifiability,
                             Rng& rng);

}  // namespace rnt::exp
