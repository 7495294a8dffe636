// Tests for the adaptive replanning pipeline: the link estimator's
// posterior mechanics, the drift detector's alarm gating, the warm-start
// replanner's equivalence with core::rome, and the end-to-end pipeline's
// determinism and policy behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "core/expected_rank.h"
#include "core/rome.h"
#include "failures/trace.h"
#include "graph/generators.h"
#include "online/drift_detector.h"
#include "online/link_estimator.h"
#include "online/pipeline.h"
#include "online/replanner.h"
#include "testkit/instance.h"
#include "tomo/estimation.h"
#include "tomo/monitors.h"
#include "util/rng.h"

namespace rnt::online {
namespace {

/// Hand-built three-link system: path 0 = {0}, path 1 = {1},
/// path 2 = {0, 1}, path 3 = {2}.
tomo::PathSystem tiny_system() {
  auto make = [](std::vector<graph::EdgeId> links) {
    tomo::ProbePath p;
    p.links = std::move(links);
    p.hops = p.links.size();
    return p;
  };
  return tomo::PathSystem(3, {make({0}), make({1}), make({0, 1}), make({2})});
}

/// Random ISP-like workload for the replanner / pipeline tests.
struct SmallWorld {
  graph::Graph graph{0};
  std::unique_ptr<tomo::PathSystem> system;
  tomo::CostModel costs = tomo::CostModel::unit();
  std::unique_ptr<failures::FailureModel> model;
  double budget = 0.0;

  explicit SmallWorld(std::uint64_t seed, double intensity = 3.0) {
    Rng rng(seed);
    graph = graph::connected_erdos_renyi(30, 60, rng);
    system = std::make_unique<tomo::PathSystem>(
        tomo::build_path_system(graph, 60, rng));
    model = std::make_unique<failures::FailureModel>(
        failures::markopoulou_model(graph.edge_count(), rng, intensity));
    budget = 0.4 * static_cast<double>(system->path_count());
  }
};

// --------------------------------------------------------------------------
// LinkEstimator
// --------------------------------------------------------------------------

TEST(LinkEstimator, StartsAtPriorMean) {
  LinkEstimator est(4);
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_DOUBLE_EQ(est.probability(l), 0.5 / (0.5 + 9.5));
  }
  EXPECT_EQ(est.epochs(), 0u);
}

TEST(LinkEstimator, DirectTelemetryMovesPosterior) {
  LinkEstimator est(2);
  const double prior = est.probability(0);
  est.observe_link(0, true, 10.0);
  est.observe_link(1, false, 10.0);
  EXPECT_GT(est.probability(0), prior);
  EXPECT_LT(est.probability(1), prior);
  EXPECT_THROW(est.observe_link(2, true), std::out_of_range);
  EXPECT_THROW(est.observe_link(0, true, -1.0), std::invalid_argument);
}

TEST(LinkEstimator, LossConcentratesOnFailingLink) {
  const tomo::PathSystem system = tiny_system();
  LinkEstimator est(system.link_count());
  // Link 0 is down: path {0} and path {0,1} lose, path {1} delivers.
  for (int i = 0; i < 40; ++i) {
    est.observe_epoch(system, {0, 1, 2}, {false, true, false});
  }
  EXPECT_GT(est.probability(0), 0.5);
  EXPECT_LT(est.probability(1), 0.1);
  // Link 2 never probed: still at the prior.
  EXPECT_DOUBLE_EQ(est.probability(2), 0.5 / (0.5 + 9.5));
  EXPECT_EQ(est.epochs(), 40u);
}

TEST(LinkEstimator, ForgettingDecaysTowardPrior) {
  const tomo::PathSystem system = tiny_system();
  LinkEstimatorConfig config;
  config.forgetting = 0.8;
  LinkEstimator est(system.link_count(), config);
  for (int i = 0; i < 30; ++i) {
    est.observe_epoch(system, {0}, {false});
  }
  const double peak = est.probability(0);
  ASSERT_GT(peak, 0.3);
  // Link 0 recovers: every probe now delivers.
  for (int i = 0; i < 30; ++i) {
    est.observe_epoch(system, {0}, {true});
  }
  EXPECT_LT(est.probability(0), 0.1);
}

TEST(LinkEstimator, ModelSnapshotMatchesProbabilities) {
  LinkEstimator est(3);
  est.observe_link(1, true, 5.0);
  const failures::FailureModel model = est.model();
  ASSERT_EQ(model.link_count(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_DOUBLE_EQ(model.probability(l), est.probability(l));
  }
}

TEST(LinkEstimator, RejectsMismatchedInput) {
  const tomo::PathSystem system = tiny_system();
  LinkEstimator est(system.link_count());
  EXPECT_THROW(est.observe_epoch(system, {0, 1}, {true}),
               std::invalid_argument);
  LinkEstimator wrong(system.link_count() + 1);
  EXPECT_THROW(wrong.observe_epoch(system, {0}, {true}),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// DriftDetector
// --------------------------------------------------------------------------

TEST(DriftDetector, StationaryStreamNeverTriggers) {
  DriftDetector drift(3);
  const std::vector<double> estimate{0.05, 0.1, 0.02};
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(drift.observe(estimate));
  }
  EXPECT_EQ(drift.triggers(), 0u);
  EXPECT_NEAR(drift.divergence(), 0.0, 1e-12);
}

TEST(DriftDetector, RegimeShiftTriggersOnce) {
  DriftDetector drift(3);
  const std::vector<double> before{0.05, 0.05, 0.05};
  const std::vector<double> after{0.4, 0.05, 0.05};
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(drift.observe(before));
  bool fired = false;
  for (int i = 0; i < 20 && !fired; ++i) fired = drift.observe(after);
  EXPECT_TRUE(fired);
  EXPECT_EQ(drift.triggers(), 1u);
  // Cooldown: the very next epoch cannot re-trigger.
  EXPECT_FALSE(drift.observe(after));
}

TEST(DriftDetector, WarmupSuppressesEarlyAlarms) {
  DriftDetectorConfig config;
  config.warmup = 10;
  DriftDetector drift(1, config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(drift.observe({i % 2 == 0 ? 0.01 : 0.6}));
  }
}

TEST(DriftDetector, RearmResetsReference) {
  DriftDetector drift(2);
  const std::vector<double> before{0.05, 0.05};
  const std::vector<double> after{0.5, 0.5};
  for (int i = 0; i < 20; ++i) drift.observe(before);
  bool fired = false;
  for (int i = 0; i < 20 && !fired; ++i) fired = drift.observe(after);
  ASSERT_TRUE(fired);
  drift.rearm(after);
  // The new regime is now the reference: stationary at `after` stays calm.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(drift.observe(after));
  }
  EXPECT_EQ(drift.triggers(), 1u);
}

TEST(DriftDetector, RejectsSizeMismatch) {
  DriftDetector drift(2);
  EXPECT_THROW(drift.observe({0.1}), std::invalid_argument);
  EXPECT_THROW(drift.rearm({0.1, 0.2, 0.3}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Replanner
// --------------------------------------------------------------------------

TEST(Replanner, ColdPlanMatchesCoreRome) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SmallWorld w(seed);
    const core::ProbBoundEr engine(*w.system, *w.model);
    core::SelectorStats rome_stats;
    const core::Selection expected =
        core::rome(*w.system, w.costs, w.budget, engine, &rome_stats);

    Replanner replanner(*w.system, w.costs);
    ReplanStats stats;
    const core::Selection got = replanner.replan(engine, w.budget, &stats);
    EXPECT_EQ(got.paths, expected.paths) << "seed " << seed;
    EXPECT_DOUBLE_EQ(got.objective, expected.objective);
    EXPECT_FALSE(stats.warm);
    EXPECT_EQ(stats.rome.gain_evaluations, rome_stats.gain_evaluations);
  }
}

TEST(Replanner, WarmReplanOnSameEngineKeepsSelectionCheaply) {
  SmallWorld w(7);
  const core::ProbBoundEr engine(*w.system, *w.model);
  Replanner replanner(*w.system, w.costs);
  ReplanStats cold;
  const core::Selection first = replanner.replan(engine, w.budget, &cold);
  ReplanStats warm;
  const core::Selection second = replanner.replan(engine, w.budget, &warm);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.reused, first.paths.size());
  EXPECT_EQ(second.paths, first.paths);
  // The whole point: substantially fewer gain evaluations than the cold
  // run (the stale-seeded heap still pays ~1 eval/pop plus requeues).
  EXPECT_LT(static_cast<double>(warm.rome.gain_evaluations),
            0.7 * static_cast<double>(cold.rome.gain_evaluations));
}

TEST(Replanner, WarmReplanTracksColdObjectiveAfterDrift) {
  SmallWorld w(11, 2.0);
  Rng drift_rng(99);
  const failures::FailureModel shifted =
      failures::markopoulou_model(w.graph.edge_count(), drift_rng, 8.0);

  const core::ProbBoundEr engine_before(*w.system, *w.model);
  const core::ProbBoundEr engine_after(*w.system, shifted);

  Replanner replanner(*w.system, w.costs);
  replanner.replan(engine_before, w.budget);
  ReplanStats warm;
  const core::Selection warm_sel =
      replanner.replan(engine_after, w.budget, &warm);

  core::SelectorStats cold;
  const core::Selection cold_sel =
      core::rome(*w.system, w.costs, w.budget, engine_after, &cold);

  EXPECT_TRUE(warm.warm);
  EXPECT_GE(warm_sel.objective, 0.95 * cold_sel.objective);
  EXPECT_LT(warm.rome.gain_evaluations, cold.gain_evaluations);
}

TEST(Replanner, OnlyWarmPlansSkipZeroGainPaths) {
  // Path 2 duplicates path 0, so once path 0 is in, its gain is exactly
  // zero.  With a budget that fits everything, the cold plan (core::rome)
  // commits every affordable path it pops, the duplicate included; the
  // warm plan commits only paths whose fresh gain clears its tolerance.
  const testkit::TestInstance inst = testkit::make_instance(
      {{0u}, {1u}, {0u}}, {0.1, 0.2}, {1.0, 1.0, 1.0}, 1);
  const core::ExactEr engine(inst.system, inst.model);
  Replanner replanner(inst.system, inst.costs);
  const core::Selection cold = replanner.replan(engine, 3.0);
  ReplanStats warm_stats;
  const core::Selection warm = replanner.replan(engine, 3.0, &warm_stats);
  EXPECT_EQ(cold.paths.size(), 3u);
  ASSERT_EQ(warm.paths.size(), 2u);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm_stats.reused, 2u);
}

TEST(Replanner, WarmPlanRescansWhenBestSingleNoLongerFits) {
  // Path 0 is the most available path and the best single path of the
  // cold plan, but it costs 5: once the budget drops to 1.5 the warm plan
  // must rescan for the Algorithm 1 fallback instead of reusing it.
  const testkit::TestInstance inst = testkit::make_instance(
      {{0u}, {1u}, {2u}}, {0.01, 0.5, 0.4}, {5.0, 1.0, 1.0}, 1);
  const core::ExactEr engine(inst.system, inst.model);
  Replanner replanner(inst.system, inst.costs);
  replanner.replan(engine, 10.0);
  ReplanStats warm;
  const core::Selection got = replanner.replan(engine, 1.5, &warm);
  const core::Selection expected =
      core::rome(inst.system, inst.costs, 1.5, engine);
  EXPECT_TRUE(warm.warm);
  EXPECT_LE(got.cost, 1.5);
  EXPECT_EQ(got.paths, expected.paths);
  EXPECT_EQ(got.objective, expected.objective);

  // The rescan leaves an affordable best single path behind, so a warm
  // plan at a still smaller budget stays within it too.
  const core::Selection smaller = replanner.replan(engine, 1.0);
  EXPECT_LE(smaller.cost, 1.0);
  EXPECT_EQ(smaller.paths, expected.paths);
}

TEST(Replanner, ResetForcesColdPlan) {
  SmallWorld w(13);
  const core::ProbBoundEr engine(*w.system, *w.model);
  Replanner replanner(*w.system, w.costs);
  replanner.replan(engine, w.budget);
  replanner.reset();
  ReplanStats stats;
  replanner.replan(engine, w.budget, &stats);
  EXPECT_FALSE(stats.warm);
  EXPECT_EQ(replanner.plans(), 2u);
}

// --------------------------------------------------------------------------
// Pipeline
// --------------------------------------------------------------------------

struct PipelineWorld {
  SmallWorld w;
  tomo::GroundTruth truth;
  failures::FailureTrace trace;

  explicit PipelineWorld(std::uint64_t seed, std::size_t epochs = 40)
      : w(seed), trace(0) {
    Rng truth_rng(seed * 23);
    truth = tomo::random_delays(w.graph.edge_count(), truth_rng);
    Rng trace_rng(seed * 19);
    trace = failures::FailureTrace::record(*w.model, epochs, trace_rng);
  }

  PipelineConfig config(ReplanPolicy policy) const {
    PipelineConfig c;
    c.budget = w.budget;
    c.policy = policy;
    c.period = 10;
    c.oracle = [this](std::size_t) { return *w.model; };
    return c;
  }
};

TEST(Pipeline, RunIsDeterministic) {
  PipelineWorld pw(3);
  Pipeline a(*pw.w.system, pw.w.costs, pw.truth,
             pw.config(ReplanPolicy::kAdaptive));
  Pipeline b(*pw.w.system, pw.w.costs, pw.truth,
             pw.config(ReplanPolicy::kAdaptive));
  Rng rng_a(42);
  Rng rng_b(42);
  const PipelineResult ra = a.run(pw.trace, rng_a);
  const PipelineResult rb = b.run(pw.trace, rng_b);
  EXPECT_EQ(ra.series, rb.series);
  EXPECT_EQ(ra.cumulative_rank, rb.cumulative_rank);
  EXPECT_EQ(ra.replans, rb.replans);
  EXPECT_EQ(ra.probe_bytes, rb.probe_bytes);
  EXPECT_EQ(ra.final_selection.paths, rb.final_selection.paths);
}

TEST(Pipeline, StaticPolicyNeverReplans) {
  PipelineWorld pw(5);
  Pipeline pipeline(*pw.w.system, pw.w.costs, pw.truth,
                    pw.config(ReplanPolicy::kStatic));
  Rng rng(1);
  const PipelineResult r = pipeline.run(pw.trace, rng);
  EXPECT_EQ(r.replans, 0u);
  EXPECT_EQ(r.epochs, pw.trace.epoch_count());
  EXPECT_EQ(r.series.rows(), pw.trace.epoch_count());
  EXPECT_GT(r.cumulative_rank, 0.0);
}

TEST(Pipeline, OracleReplansEveryEpochButLast) {
  PipelineWorld pw(7, 20);
  Pipeline pipeline(*pw.w.system, pw.w.costs, pw.truth,
                    pw.config(ReplanPolicy::kOracle));
  Rng rng(1);
  const PipelineResult r = pipeline.run(pw.trace, rng);
  EXPECT_EQ(r.replans, pw.trace.epoch_count() - 1);
  EXPECT_DOUBLE_EQ(r.replan_fraction(),
                   static_cast<double>(r.replans) /
                       static_cast<double>(r.epochs));
}

TEST(Pipeline, PeriodicPolicyReplansOnSchedule) {
  PipelineWorld pw(9, 40);
  Pipeline pipeline(*pw.w.system, pw.w.costs, pw.truth,
                    pw.config(ReplanPolicy::kPeriodic));
  Rng rng(1);
  const PipelineResult r = pipeline.run(pw.trace, rng);
  // period = 10 over 40 epochs, minus the suppressed final epoch: 10, 20,
  // 30 fire; 40 would be the last epoch.
  EXPECT_EQ(r.replans, 3u);
}

TEST(Pipeline, RejectsBadConfig) {
  PipelineWorld pw(1);
  PipelineConfig config = pw.config(ReplanPolicy::kStatic);
  config.budget = 0.0;
  EXPECT_THROW(Pipeline(*pw.w.system, pw.w.costs, pw.truth, config),
               std::invalid_argument);
  PipelineConfig no_oracle = pw.config(ReplanPolicy::kOracle);
  no_oracle.oracle = nullptr;
  EXPECT_THROW(Pipeline(*pw.w.system, pw.w.costs, pw.truth, no_oracle),
               std::invalid_argument);
  Pipeline ok(*pw.w.system, pw.w.costs, pw.truth,
              pw.config(ReplanPolicy::kStatic));
  failures::FailureTrace wrong(pw.w.graph.edge_count() + 1);
  Rng rng(1);
  EXPECT_THROW(ok.run(wrong, rng), std::invalid_argument);
}

TEST(ReplanPolicyNames, RoundTrip) {
  for (ReplanPolicy policy :
       {ReplanPolicy::kStatic, ReplanPolicy::kAdaptive,
        ReplanPolicy::kPeriodic, ReplanPolicy::kOracle}) {
    EXPECT_EQ(parse_replan_policy(to_string(policy)), policy);
  }
  EXPECT_THROW(parse_replan_policy("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace rnt::online
