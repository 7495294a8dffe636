#include "online/pipeline.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "tomo/localization.h"

namespace rnt::online {

ReplanPolicy parse_replan_policy(const std::string& name) {
  if (name == "static") return ReplanPolicy::kStatic;
  if (name == "adaptive") return ReplanPolicy::kAdaptive;
  if (name == "periodic") return ReplanPolicy::kPeriodic;
  if (name == "oracle") return ReplanPolicy::kOracle;
  throw std::invalid_argument(
      "unknown replan policy (want static, adaptive, periodic or oracle): " +
      name);
}

const char* to_string(ReplanPolicy policy) {
  switch (policy) {
    case ReplanPolicy::kStatic: return "static";
    case ReplanPolicy::kAdaptive: return "adaptive";
    case ReplanPolicy::kPeriodic: return "periodic";
    case ReplanPolicy::kOracle: return "oracle";
  }
  throw std::logic_error("to_string: unhandled replan policy");
}

Pipeline::Pipeline(const tomo::PathSystem& system,
                   const tomo::CostModel& costs,
                   const tomo::GroundTruth& truth, PipelineConfig config)
    : system_(system),
      truth_(truth),
      config_(std::move(config)),
      engine_(system, truth, config_.probe),
      estimator_(system.link_count(), config_.estimator),
      drift_(system.link_count(), config_.drift),
      replanner_(system, costs) {
  if (!std::isfinite(config_.budget) || config_.budget <= 0.0) {
    throw std::invalid_argument("Pipeline: budget must be finite and positive");
  }
  if (config_.policy == ReplanPolicy::kPeriodic && config_.period == 0) {
    throw std::invalid_argument("Pipeline: periodic policy needs period > 0");
  }
  if (config_.policy == ReplanPolicy::kOracle && !config_.oracle) {
    throw std::invalid_argument("Pipeline: oracle policy needs oracle models");
  }
  if (config_.er_engine != "prob" && config_.er_engine != "kernel") {
    throw std::invalid_argument("Pipeline: er_engine must be prob or kernel");
  }
}

void Pipeline::plan(const failures::FailureModel& model,
                    PipelineResult& result) {
  ReplanStats stats;
  if (config_.er_engine == "kernel") {
    // Fresh scenario sample per plan: the model changed, so memoized
    // ranks from a previous plan's engine would not apply anyway.
    Rng rng(config_.er_seed);
    const core::KernelErEngine engine = core::KernelErEngine::monte_carlo(
        system_, model, config_.er_runs, rng);
    result.final_selection = replanner_.replan(engine, config_.budget, &stats);
  } else {
    const core::ProbBoundEr engine(system_, model);
    result.final_selection = replanner_.replan(engine, config_.budget, &stats);
  }
  result.gain_evaluations += stats.rome.gain_evaluations;
}

PipelineResult Pipeline::run(const failures::FailureTrace& trace, Rng& rng) {
  if (trace.link_count() != system_.link_count()) {
    throw std::invalid_argument("Pipeline: trace link universe mismatch");
  }
  const std::size_t epochs = trace.epoch_count();
  PipelineResult result;
  result.epochs = epochs;

  // Initial plan: the oracle policy knows epoch 0's true model; everyone
  // else starts from the estimator's prior.
  if (config_.policy == ReplanPolicy::kOracle) {
    plan(config_.oracle(0), result);
  } else {
    plan(estimator_.model(), result);
  }

  double error_sum = 0.0;
  std::size_t error_epochs = 0;
  for (std::size_t t = 0; t < epochs; ++t) {
    const failures::FailureVector& v = trace.epoch(t);
    const std::vector<std::size_t>& probed = replanner_.current().paths;
    const sim::EpochTrace epoch = engine_.run_epoch(probed, v, rng);

    // Feed the estimator and the tomography consumers.
    estimator_.observe_epoch(system_, probed, epoch.availability(probed));
    const tomo::Measurements meas =
        epoch.measurements(system_, config_.probe.per_hop_processing_ms);
    double est_error = 0.0;
    if (!meas.rows.empty()) {
      est_error =
          tomo::estimate_link_metrics_lsq(system_, meas, truth_)
              .mean_abs_error;
      error_sum += est_error;
      ++error_epochs;
    }
    if (tomo::localize_single_failure(system_, probed, v).exact()) {
      ++result.localized_exact;
    }

    const double rank =
        static_cast<double>(system_.surviving_rank(probed, v));
    result.cumulative_rank += rank;
    result.probe_bytes += epoch.bytes_on_wire;

    // Re-plan decision; the last epoch never re-plans (nothing left to
    // probe with the new basis).
    bool replanned = false;
    const bool last = t + 1 >= epochs;
    switch (config_.policy) {
      case ReplanPolicy::kStatic:
        break;
      case ReplanPolicy::kAdaptive:
        if (drift_.observe(estimator_.probabilities()) && !last) {
          ++result.drift_triggers;
          plan(estimator_.model(), result);
          drift_.rearm(estimator_.probabilities());
          replanned = true;
        }
        break;
      case ReplanPolicy::kPeriodic:
        if (!last && (t + 1) % config_.period == 0) {
          plan(estimator_.model(), result);
          replanned = true;
        }
        break;
      case ReplanPolicy::kOracle:
        if (!last) {
          plan(config_.oracle(t + 1), result);
          replanned = true;
        }
        break;
    }
    if (replanned) ++result.replans;

    result.series.add_row(
        static_cast<double>(t),
        {rank, result.cumulative_rank, est_error, replanned ? 1.0 : 0.0,
         drift_.divergence(), static_cast<double>(result.probe_bytes)});
  }

  result.mean_rank =
      epochs == 0 ? 0.0 : result.cumulative_rank / static_cast<double>(epochs);
  result.mean_estimation_error =
      error_epochs == 0 ? 0.0 : error_sum / static_cast<double>(error_epochs);
  result.final_selection = replanner_.current();
  return result;
}

}  // namespace rnt::online
