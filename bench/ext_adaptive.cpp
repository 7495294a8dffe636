// Extension — adaptive replanning under non-stationary failures.
//
// A basis selected once for a known failure distribution slowly rots when
// the distribution moves.  This driver replays a concatenated trace of
// three failure regimes (different markopoulou intensities AND different
// fragile-link sets) through the online pipeline under four policies:
//
//   static    plan once, never re-plan (the paper's offline setting);
//   periodic  re-plan on a fixed schedule (warm start);
//   adaptive  re-plan on drift-detector alarms only (warm start);
//   oracle    re-plan every epoch from the true generating model — the
//             upper baseline no online policy can beat.
//
// Reported per policy: cumulative surviving rank, its fraction of the
// oracle, how often the policy re-planned, and the total ER gain
// evaluations spent.  A second table isolates the warm-start replanner:
// the same sequence of distribution updates solved warm vs cold, with
// evaluation counts, objectives and wall time.
//
// Expected shape: adaptive recovers >= 90% of the oracle's cumulative
// rank while re-planning <= 20% of epochs, and the warm re-plans cost a
// small fraction of cold runs' gain evaluations at matching objectives.
#include <chrono>

#include "bench_common.h"
#include "core/expected_rank.h"
#include "core/rome.h"
#include "failures/trace.h"
#include "online/pipeline.h"
#include "tomo/estimation.h"

namespace rnt::bench {
namespace {

int main_body(Flags& flags) {
  const CommonOptions opts = parse_common(flags);
  const auto nodes =
      static_cast<std::size_t>(flags.get_int("nodes", opts.full ? 87 : 40));
  const auto links =
      static_cast<std::size_t>(flags.get_int("links", opts.full ? 161 : 80));
  const auto paths = static_cast<std::size_t>(
      flags.get_int("paths", opts.full ? 400 : 150));
  const auto segment_epochs = static_cast<std::size_t>(
      flags.get_int("segment-epochs", opts.full ? 120 : 60));
  const double budget_frac = flags.get_double("budget-frac", 0.05);
  print_header("Extension: adaptive replanning under drift", opts);

  const std::vector<double> intensities{2.0, 10.0, 5.0};
  const exp::Workload w = exp::make_custom_workload(
      nodes, links, paths, opts.seed, intensities.front());
  const double budget = [&] {
    std::vector<std::size_t> all(w.system->path_count());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return budget_frac * w.costs.subset_cost(*w.system, all);
  }();

  // One failure model per regime, each with its own forked rng so a
  // regime change moves which links are fragile, not just how fragile.
  Rng model_rng(opts.seed * 13);
  std::vector<failures::FailureModel> models;
  for (const double intensity : intensities) {
    Rng seg_rng = model_rng.fork();
    models.push_back(failures::markopoulou_model(links, seg_rng, intensity));
  }
  Rng record_rng(opts.seed * 19);
  std::vector<failures::FailureTrace> segments;
  for (const failures::FailureModel& model : models) {
    segments.push_back(
        failures::FailureTrace::record(model, segment_epochs, record_rng));
  }
  const failures::FailureTrace trace =
      failures::FailureTrace::concatenate(segments);

  Rng truth_rng(opts.seed * 23);
  const tomo::GroundTruth truth =
      tomo::random_delays(links, truth_rng);

  // Re-plan ER engine: prob (default) | kernel; the pipeline validates.
  // Re-read with default "prob" — parse_common's "mc" default is for the
  // figure drivers' scenario engines, not the re-planner.
  const std::string er_engine = flags.get_string("engine", "prob");

  const auto run_policy = [&](online::ReplanPolicy policy) {
    online::PipelineConfig config;
    config.budget = budget;
    config.policy = policy;
    config.period = segment_epochs / 2;
    config.er_engine = er_engine;
    config.probe.jitter_std_ms = 0.5;
    config.oracle = [&](std::size_t epoch) {
      return models[std::min(epoch / segment_epochs, models.size() - 1)];
    };
    online::Pipeline pipeline(*w.system, w.costs, truth, config);
    Rng run_rng(opts.seed * 29);
    return pipeline.run(trace, run_rng);
  };

  const online::PipelineResult oracle =
      run_policy(online::ReplanPolicy::kOracle);
  TablePrinter table({"policy", "cum rank", "of oracle", "re-plans",
                      "re-plan frac", "gain evals"});
  for (const online::ReplanPolicy policy :
       {online::ReplanPolicy::kStatic, online::ReplanPolicy::kPeriodic,
        online::ReplanPolicy::kAdaptive, online::ReplanPolicy::kOracle}) {
    const online::PipelineResult r =
        policy == online::ReplanPolicy::kOracle ? oracle : run_policy(policy);
    table.add_row({online::to_string(policy), fmt(r.cumulative_rank, 0),
                   fmt(oracle.cumulative_rank > 0
                           ? r.cumulative_rank / oracle.cumulative_rank
                           : 1.0,
                       3),
                   std::to_string(r.replans), fmt(r.replan_fraction(), 3),
                   std::to_string(r.gain_evaluations)});
  }
  table.print(std::cout, opts.csv);

  // Warm vs cold on the same sequence of distribution updates: re-solve
  // once per regime, warm-starting from the previous selection.  The
  // Monte-Carlo engine prices each gain evaluation realistically (ProbBound
  // gains are so cheap that heap bookkeeping would mask the saving).
  using Clock = std::chrono::steady_clock;
  online::Replanner warm(*w.system, w.costs);
  std::size_t warm_evals = 0;
  std::size_t cold_evals = 0;
  double warm_objective = 0.0;
  double cold_objective = 0.0;
  double warm_ms = 0.0;
  double cold_ms = 0.0;
  Rng mc_rng(opts.seed * 31);
  for (const failures::FailureModel& model : models) {
    const core::MonteCarloEr engine(*w.system, model,
                                    opts.full ? 100 : 40, mc_rng);
    online::ReplanStats ws;
    const auto t0 = Clock::now();
    warm_objective += warm.replan(engine, budget, &ws).objective;
    const auto t1 = Clock::now();
    core::SelectorStats cs;
    cold_objective +=
        core::rome(*w.system, w.costs, budget, engine, &cs).objective;
    const auto t2 = Clock::now();
    warm_evals += ws.rome.gain_evaluations;
    cold_evals += cs.gain_evaluations;
    warm_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    cold_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
  }
  std::cout << "\n";
  TablePrinter warm_table(
      {"re-selection", "gain evals", "objective", "time ms"});
  warm_table.add_row({"cold (core::rome x" +
                          std::to_string(models.size()) + ")",
                      std::to_string(cold_evals), fmt(cold_objective, 2),
                      fmt(cold_ms, 2)});
  warm_table.add_row({"warm (Replanner)", std::to_string(warm_evals),
                      fmt(warm_objective, 2), fmt(warm_ms, 2)});
  warm_table.add_row(
      {"warm / cold",
       fmt(cold_evals > 0 ? static_cast<double>(warm_evals) /
                                static_cast<double>(cold_evals)
                          : 1.0,
           3),
       fmt(cold_objective > 0 ? warm_objective / cold_objective : 1.0, 3),
       fmt(cold_ms > 0 ? warm_ms / cold_ms : 1.0, 3)});
  warm_table.print(std::cout, opts.csv);
  return 0;
}

}  // namespace
}  // namespace rnt::bench

int main(int argc, char** argv) {
  return rnt::bench::run_driver(argc, argv, rnt::bench::main_body);
}
