// The adaptive replanning pipeline: the closed loop the ROADMAP's resident
// NOC needs — telemetry in, failure model updated, basis re-planned,
// probes out.
//
// Each epoch the pipeline (1) probes the current selection at packet
// granularity with sim::ProbeEngine against the epoch's failure vector
// from a replayed FailureTrace, (2) feeds the probe outcomes to the
// LinkEstimator and the surviving measurements to tomo estimation (link
// metric error vs ground truth) and localization, (3) lets the configured
// re-plan policy decide whether to re-select the basis — never (static),
// on drift-detector alarms against the estimated model (adaptive), every
// `period` epochs (periodic), or every epoch against the true
// epoch-generating model (oracle, the upper baseline for benchmarks) —
// and (4) emits a per-epoch exp::SeriesTable row (achieved surviving
// rank, cumulative rank, estimation error, re-plan and drift indicators,
// probe bytes).  Deterministic given the trace and the caller's Rng.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/selection.h"
#include "exp/series.h"
#include "failures/trace.h"
#include "online/drift_detector.h"
#include "online/link_estimator.h"
#include "online/replanner.h"
#include "sim/probe_engine.h"
#include "tomo/cost_model.h"
#include "tomo/estimation.h"
#include "tomo/path_system.h"
#include "util/rng.h"

namespace rnt::online {

enum class ReplanPolicy {
  kStatic,    ///< Plan once, never re-plan.
  kAdaptive,  ///< Re-plan on drift-detector alarms (warm start).
  kPeriodic,  ///< Re-plan every `period` epochs (warm start).
  kOracle,    ///< Re-plan every epoch from the true model (benchmark bound).
};

/// Parses "static" / "adaptive" / "periodic" / "oracle"; throws
/// std::invalid_argument otherwise.
ReplanPolicy parse_replan_policy(const std::string& name);
const char* to_string(ReplanPolicy policy);

struct PipelineConfig {
  double budget = 0.0;  ///< Probing budget per epoch.
  ReplanPolicy policy = ReplanPolicy::kAdaptive;
  std::size_t period = 20;  ///< kPeriodic re-plan interval.
  /// ER engine for (re-)planning: "prob" scores with the ProbBound
  /// surrogate; "kernel" samples er_runs scenarios from the current model
  /// (seed er_seed) and scores them with the bit-packed rank kernel.
  std::string er_engine = "prob";
  std::size_t er_runs = 50;
  std::uint64_t er_seed = 101;
  LinkEstimatorConfig estimator;
  DriftDetectorConfig drift;
  sim::ProbeEngineConfig probe;
  /// True generating model per epoch; required by kOracle (also used for
  /// the initial oracle plan).
  std::function<failures::FailureModel(std::size_t epoch)> oracle;
};

/// Per-run aggregates next to the per-epoch series.
struct PipelineResult {
  exp::SeriesTable series{"epoch",
                          {"rank", "cum-rank", "est-error", "replanned",
                           "divergence", "bytes"}};
  std::size_t epochs = 0;
  std::size_t replans = 0;         ///< Re-plans after the initial one.
  std::size_t drift_triggers = 0;  ///< Adaptive alarms (== replans there).
  double cumulative_rank = 0.0;
  double mean_rank = 0.0;
  double mean_estimation_error = 0.0;  ///< Over epochs with measurements.
  std::size_t localized_exact = 0;     ///< Epochs localizing a unique culprit.
  std::size_t probe_bytes = 0;
  std::size_t gain_evaluations = 0;  ///< Across all (re-)plans.
  core::Selection final_selection;

  double replan_fraction() const {
    return epochs == 0 ? 0.0
                       : static_cast<double>(replans) /
                             static_cast<double>(epochs);
  }
};

/// Drives the epoch loop over a failure trace.
class Pipeline {
 public:
  /// `truth` supplies per-link metrics for the probe engine and the
  /// estimation-error metric; its size must match the system's links.
  Pipeline(const tomo::PathSystem& system, const tomo::CostModel& costs,
           const tomo::GroundTruth& truth, PipelineConfig config);

  /// Replays every epoch of `trace`.  Deterministic given `rng`'s state.
  PipelineResult run(const failures::FailureTrace& trace, Rng& rng);

  const LinkEstimator& estimator() const { return estimator_; }
  const DriftDetector& drift() const { return drift_; }
  const Replanner& replanner() const { return replanner_; }

 private:
  /// Re-selects against `model` and folds the stats into `result`.
  void plan(const failures::FailureModel& model, PipelineResult& result);

  const tomo::PathSystem& system_;
  const tomo::GroundTruth& truth_;
  PipelineConfig config_;
  sim::ProbeEngine engine_;
  LinkEstimator estimator_;
  DriftDetector drift_;
  Replanner replanner_;
};

}  // namespace rnt::online
