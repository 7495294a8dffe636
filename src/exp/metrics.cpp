#include "exp/metrics.h"

#include "tomo/row_classes.h"

namespace rnt::exp {

namespace {

/// Rank and identifiable-link count of each class's surviving rows.
struct ClassMetrics {
  std::size_t rank = 0;
  std::size_t identifiable = 0;
};

/// Samples `scenarios` failure vectors in rng order and groups them by the
/// surviving rows of `subset`, all classes eliminated by one
/// tomo::class_row_spaces call.  Class 0 is `subset` itself (no failure on
/// it); class_of[s] is scenario s's class.
struct SampledClasses {
  std::vector<std::size_t> class_of;
  std::vector<ClassMetrics> metrics;
};

SampledClasses sample_classes(const tomo::PathSystem& system,
                              const std::vector<std::size_t>& subset,
                              const failures::FailureModel& model,
                              std::size_t scenarios, bool identifiability,
                              Rng& rng) {
  tomo::RowClasses classes;
  classes.intern(subset);
  SampledClasses out;
  out.class_of.reserve(scenarios);
  for (std::size_t s = 0; s < scenarios; ++s) {
    out.class_of.push_back(
        classes.intern(system.surviving_rows(subset, model.sample(rng))));
  }
  // Rank-only callers skip the unit-row identifiability tests.
  const std::vector<linalg::RowSpace> spaces =
      tomo::class_row_spaces(system, classes, identifiability);
  out.metrics.reserve(spaces.size());
  for (const linalg::RowSpace& space : spaces) {
    out.metrics.push_back({space.rank, space.identifiable.size()});
  }
  return out;
}

}  // namespace

SelectionEvaluation evaluate_selection(const tomo::PathSystem& system,
                                       const std::vector<std::size_t>& subset,
                                       const failures::FailureModel& model,
                                       const EvalOptions& options, Rng& rng) {
  const SampledClasses sampled =
      sample_classes(system, subset, model, options.scenarios,
                     options.identifiability, rng);
  SelectionEvaluation eval;
  eval.no_failure_rank = sampled.metrics[0].rank;
  eval.no_failure_identifiability = sampled.metrics[0].identifiable;
  for (const std::size_t c : sampled.class_of) {
    eval.rank.add(static_cast<double>(sampled.metrics[c].rank));
    if (options.identifiability) {
      eval.identifiability.add(
          static_cast<double>(sampled.metrics[c].identifiable));
    }
  }
  return eval;
}

LossEvaluation evaluate_loss(const tomo::PathSystem& system,
                             const std::vector<std::size_t>& subset,
                             const failures::FailureModel& model,
                             std::size_t scenarios, bool identifiability,
                             Rng& rng) {
  const SampledClasses sampled =
      sample_classes(system, subset, model, scenarios, identifiability, rng);
  LossEvaluation loss;
  const double base_rank = static_cast<double>(sampled.metrics[0].rank);
  const double base_ident =
      static_cast<double>(sampled.metrics[0].identifiable);
  for (const std::size_t c : sampled.class_of) {
    loss.rank_loss.add(base_rank -
                       static_cast<double>(sampled.metrics[c].rank));
    if (identifiability) {
      loss.identifiability_loss.add(
          base_ident - static_cast<double>(sampled.metrics[c].identifiable));
    }
  }
  return loss;
}

}  // namespace rnt::exp
