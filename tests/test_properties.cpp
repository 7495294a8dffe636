// Parameterized cross-topology property sweeps: the paper's qualitative
// claims checked across all three calibrated topologies and several failure
// intensities.  These are the "does the headline hold everywhere" tests —
// each asserts an ordering or invariant with generous statistical margins.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/expected_rank.h"
#include "core/matrome.h"
#include "core/rome.h"
#include "core/select_path.h"
#include "exp/metrics.h"
#include "exp/workload.h"
#include "linalg/cholesky.h"
#include "linalg/elimination.h"
#include "testkit/checks.h"
#include "testkit/instance.h"

namespace rnt {
namespace {

using Param = std::tuple<graph::IspTopology, double>;  // topology, intensity

class CrossTopology : public ::testing::TestWithParam<Param> {
 protected:
  exp::Workload make(std::size_t paths, std::uint64_t seed = 7) const {
    exp::WorkloadSpec spec;
    spec.topology = std::get<0>(GetParam());
    spec.candidate_paths = paths;
    spec.failure_intensity = std::get<1>(GetParam());
    spec.seed = seed;
    return exp::make_workload(spec);
  }
};

TEST_P(CrossTopology, WorkloadSane) {
  const exp::Workload w = make(150);
  EXPECT_TRUE(w.graph.is_connected());
  EXPECT_EQ(w.system->path_count(), 150u);
  EXPECT_GT(w.system->full_rank(), 0u);
  EXPECT_LE(w.system->full_rank(),
            std::min<std::size_t>(150, w.graph.edge_count()));
  EXPECT_GT(w.failures->expected_failures(), 0.0);
}

TEST_P(CrossTopology, RankOraclesAgree) {
  // The testkit check referees every production rank path (elimination,
  // sparse, incremental basis, row-subset selectors) against the exact
  // integer rank referee, on the full system and on a seeded random
  // subset.  At 120 paths the full ranks (50-66) are past what a single
  // 61-bit prime can referee.
  const exp::Workload w = make(120);
  const testkit::TestInstance inst = testkit::from_workload(w, 7);
  const testkit::CheckResult r = testkit::run_check(
      *testkit::find_check("rank-oracles-agree"), inst);
  EXPECT_TRUE(r.passed) << r.message;
}

TEST_P(CrossTopology, BasisSelectorsAgreeOnRank) {
  // Selector sizes are covered by the harness's incremental-basis check
  // (which additionally verifies the dependent-row reductions Eq. 6
  // consumes); the Cholesky selector is not, so it stays explicit.
  const exp::Workload w = make(120);
  const testkit::TestInstance inst = testkit::from_workload(w, 11);
  const testkit::CheckResult r = testkit::run_check(
      *testkit::find_check("incremental-basis-reduction"), inst);
  EXPECT_TRUE(r.passed) << r.message;
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const linalg::Matrix m = tomo::path_matrix(*w.system, all);
  EXPECT_EQ(linalg::cholesky_basis(m).size(), linalg::rank(m));
}

TEST_P(CrossTopology, HarnessChecksHoldOnCalibratedWorkloads) {
  // Seeded batch: every polynomial-time harness check must hold on real
  // Table I topologies, not just on the fuzz generator's small instances.
  // (The brute-force-oracle checks are excluded — their exhaustive-ER
  // guards reject instances of this size by design.)
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const exp::Workload w = make(60, seed);
    const testkit::TestInstance inst = testkit::from_workload(w, seed);
    for (const char* name :
         {"rank-oracles-agree", "incremental-basis-reduction",
          "probbound-accumulator-consistent", "trace-roundtrip"}) {
      const testkit::CheckResult r =
          testkit::run_check(*testkit::find_check(name), inst);
      EXPECT_TRUE(r.passed) << name << " on seed " << seed << ": "
                            << r.message;
    }
  }
}

TEST_P(CrossTopology, ProbBoundDominatesMonteCarloTruth) {
  // ProbBound is an upper bound on ER; a Monte Carlo estimate (500 runs)
  // must not exceed it by more than sampling noise.
  const exp::Workload w = make(100);
  core::ProbBoundEr bound(*w.system, *w.failures);
  Rng rng = w.eval_rng();
  core::MonteCarloEr mc(*w.system, *w.failures, 500, rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double b = bound.evaluate(all);
  const double m = mc.evaluate(all);
  EXPECT_GE(b, m - 0.05 * m - 1.0);
}

TEST_P(CrossTopology, RomeRespectsBudgetAndBeatsBaselineAtLowBudget) {
  const exp::Workload w = make(200);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double budget = 0.06 * w.costs.subset_cost(*w.system, all);
  core::ProbBoundEr engine(*w.system, *w.failures);
  const auto rome_sel = core::rome(*w.system, w.costs, budget, engine);
  EXPECT_LE(rome_sel.cost, budget + 1e-9);
  Rng sp_rng(3);
  const auto sp_sel =
      core::select_path_budgeted(*w.system, w.costs, budget, sp_rng);
  Rng rng = w.eval_rng();
  RunningStats rome_rank, sp_rank;
  for (int s = 0; s < 80; ++s) {
    const auto v = w.failures->sample(rng);
    rome_rank.add(
        static_cast<double>(w.system->surviving_rank(rome_sel.paths, v)));
    sp_rank.add(
        static_cast<double>(w.system->surviving_rank(sp_sel.paths, v)));
  }
  EXPECT_GT(rome_rank.mean(), sp_rank.mean());
}

TEST_P(CrossTopology, MatRoMeBasisIsMostAvailableBasis) {
  // MatRoMe's modular objective: its basis must have total EA at least
  // that of any arbitrary Cholesky basis.
  const exp::Workload w = make(150);
  const auto mat = core::matrome(*w.system, *w.failures);
  Rng rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    const auto arbitrary = core::select_path_basis(*w.system, rng);
    double arbitrary_ea = 0.0;
    for (std::size_t q : arbitrary.paths) {
      arbitrary_ea += w.system->expected_availability(q, *w.failures);
    }
    EXPECT_GE(mat.objective + 1e-9, arbitrary_ea);
  }
}

TEST_P(CrossTopology, SurvivingRankNeverExceedsNoFailureRank) {
  const exp::Workload w = make(120);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const std::size_t base = w.system->full_rank();
  Rng rng = w.eval_rng();
  for (int s = 0; s < 40; ++s) {
    const auto v = w.failures->sample(rng);
    EXPECT_LE(w.system->surviving_rank(all, v), base);
  }
}

TEST_P(CrossTopology, EvaluationMetricsConsistent) {
  const exp::Workload w = make(100);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng = w.eval_rng();
  exp::EvalOptions opts;
  opts.scenarios = 40;
  opts.identifiability = true;
  const auto eval =
      exp::evaluate_selection(*w.system, all, *w.failures, opts, rng);
  // Identifiability is bounded by rank in every scenario, hence in mean.
  EXPECT_LE(eval.identifiability.stats.mean(), eval.rank.stats.mean() + 1e-9);
  EXPECT_LE(eval.identifiability.stats.max(),
            static_cast<double>(w.graph.edge_count()));
  // CDF endpoints.
  EXPECT_DOUBLE_EQ(eval.rank.distribution.cdf(eval.rank.stats.max()), 1.0);
  EXPECT_DOUBLE_EQ(
      eval.rank.distribution.cdf(eval.rank.stats.min() - 1.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, CrossTopology,
    ::testing::Combine(::testing::Values(graph::IspTopology::kAS1755,
                                         graph::IspTopology::kAS3257,
                                         graph::IspTopology::kAS1239),
                       ::testing::Values(2.0, 5.0)),
    [](const ::testing::TestParamInfo<Param>& info) {
      const auto profile = graph::isp_profile(std::get<0>(info.param));
      const int intensity10 =
          static_cast<int>(std::get<1>(info.param) * 10.0);
      return profile.name + "_i" + std::to_string(intensity10);
    });

}  // namespace
}  // namespace rnt
