// Tests for the Expected Rank engines, including the paper's structural
// theorems as executable properties: ER is non-decreasing and submodular
// with ER(empty) = 0 (Theorem 5 and its lemma), ER is modular on linearly
// independent sets (Lemma 8), and the ProbBound of Eq. 7 upper-bounds the
// true ER while matching it exactly when no dependent paths are present.
#include <gtest/gtest.h>

#include <numeric>

#include "core/expected_rank.h"
#include "exp/workload.h"
#include "failures/failure_model.h"
#include "graph/generators.h"
#include "graph/isp_topology.h"
#include "linalg/elimination.h"
#include "testkit/checks.h"
#include "tomo/monitors.h"
#include "util/rng.h"

namespace rnt::core {
namespace {

/// Small fixture: a ring-with-chords topology (12 links) so exact 2^|E|
/// enumeration stays fast, with a Markopoulou-like failure model.
struct SmallWorld {
  graph::Graph graph{0};
  std::unique_ptr<tomo::PathSystem> system;
  std::unique_ptr<failures::FailureModel> model;

  explicit SmallWorld(std::uint64_t seed, double intensity = 3.0) {
    Rng rng(seed);
    graph = graph::ring_with_chords(8, 4, rng);
    system = std::make_unique<tomo::PathSystem>(
        tomo::build_path_system(graph, 12, rng));
    model = std::make_unique<failures::FailureModel>(
        failures::markopoulou_model(graph.edge_count(), rng, intensity));
  }
};

/// A maximal independent subset of the candidate paths, in path order.
std::vector<std::size_t> independent_paths(const tomo::PathSystem& system) {
  std::vector<std::size_t> all(system.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return linalg::independent_row_subset(tomo::path_matrix(system, all));
}

std::vector<std::size_t> random_subset(std::size_t n, Rng& rng,
                                       double density = 0.5) {
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(density)) subset.push_back(i);
  }
  return subset;
}

// --------------------------------------------------------------------------
// ExactEr basics
// --------------------------------------------------------------------------

TEST(ExactEr, EmptySetIsZero) {
  SmallWorld w(1);
  ExactEr er(*w.system, *w.model);
  EXPECT_DOUBLE_EQ(er.evaluate({}), 0.0);
}

TEST(ExactEr, SinglePathEqualsAvailability) {
  SmallWorld w(2);
  ExactEr er(*w.system, *w.model);
  for (std::size_t q = 0; q < w.system->path_count(); ++q) {
    EXPECT_NEAR(er.evaluate({q}), w.system->expected_availability(q, *w.model),
                1e-9)
        << "path " << q;
  }
}

TEST(ExactEr, NoFailuresGivesPlainRank) {
  SmallWorld w(3);
  const auto zero = failures::uniform_model(w.graph.edge_count(), 0.0);
  ExactEr er(*w.system, zero);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_NEAR(er.evaluate(all), static_cast<double>(w.system->full_rank()),
              1e-9);
}

TEST(ExactEr, CertainFailureGivesZero) {
  SmallWorld w(4);
  const auto one = failures::uniform_model(w.graph.edge_count(), 1.0);
  ExactEr er(*w.system, one);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_NEAR(er.evaluate(all), 0.0, 1e-12);
}

TEST(ExactEr, GuardsLargeLinkCounts) {
  Rng rng(5);
  graph::Graph g = graph::build_isp_like(30, 60, rng);
  tomo::PathSystem sys = tomo::build_path_system(g, 20, rng);
  const auto model = failures::uniform_model(g.edge_count(), 0.1);
  EXPECT_THROW(ExactEr(sys, model), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Paper theorems as properties (exact engine)
// --------------------------------------------------------------------------

TEST(ErProperties, NonDecreasing) {
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    SmallWorld w(seed);
    ExactEr er(*w.system, *w.model);
    Rng rng(seed * 7);
    auto subset = random_subset(w.system->path_count(), rng, 0.4);
    double prev = er.evaluate(subset);
    for (std::size_t q = 0; q < w.system->path_count(); ++q) {
      if (std::find(subset.begin(), subset.end(), q) != subset.end()) continue;
      auto bigger = subset;
      bigger.push_back(q);
      const double now = er.evaluate(bigger);
      EXPECT_GE(now + 1e-9, prev) << "adding path " << q;
      subset = bigger;
      prev = now;
    }
  }
}

TEST(ErProperties, SubmodularityTheorem5) {
  // f(A+q) - f(A) >= f(B+q) - f(B) for all A subset of B, q outside B.
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    SmallWorld w(seed);
    ExactEr er(*w.system, *w.model);
    Rng rng(seed * 13);
    for (int trial = 0; trial < 10; ++trial) {
      const auto b = random_subset(w.system->path_count(), rng, 0.5);
      std::vector<std::size_t> a;
      for (std::size_t q : b) {
        if (rng.bernoulli(0.5)) a.push_back(q);
      }
      // Pick q outside B.
      std::vector<std::size_t> outside;
      for (std::size_t q = 0; q < w.system->path_count(); ++q) {
        if (std::find(b.begin(), b.end(), q) == b.end()) outside.push_back(q);
      }
      if (outside.empty()) continue;
      const std::size_t q = outside[rng.index(outside.size())];
      auto aq = a;
      aq.push_back(q);
      auto bq = b;
      bq.push_back(q);
      const double gain_a = er.evaluate(aq) - er.evaluate(a);
      const double gain_b = er.evaluate(bq) - er.evaluate(b);
      EXPECT_GE(gain_a + 1e-9, gain_b);
    }
  }
}

TEST(ErProperties, ModularOnIndependentSetsLemma8) {
  for (std::uint64_t seed = 30; seed < 34; ++seed) {
    SmallWorld w(seed);
    ExactEr er(*w.system, *w.model);
    // A maximal independent subset of the candidate paths.
    const auto basis = independent_paths(*w.system);
    double sum_ea = 0.0;
    for (std::size_t q : basis) {
      sum_ea += w.system->expected_availability(q, *w.model);
    }
    EXPECT_NEAR(er.evaluate(basis), sum_ea, 1e-9);
  }
}

// --------------------------------------------------------------------------
// ProbBound (Eq. 6/7)
// --------------------------------------------------------------------------

TEST(ProbBound, UpperBoundsExactEr) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    SmallWorld w(seed);
    ExactEr exact(*w.system, *w.model);
    ProbBoundEr bound(*w.system, *w.model);
    Rng rng(seed);
    for (int trial = 0; trial < 8; ++trial) {
      const auto subset = random_subset(w.system->path_count(), rng, 0.6);
      EXPECT_GE(bound.evaluate(subset) + 1e-9, exact.evaluate(subset))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(ProbBound, ExactOnIndependentSets) {
  SmallWorld w(50);
  ExactEr exact(*w.system, *w.model);
  ProbBoundEr bound(*w.system, *w.model);
  const auto basis = independent_paths(*w.system);
  EXPECT_NEAR(bound.evaluate(basis), exact.evaluate(basis), 1e-9);
}

TEST(ProbBound, SingleDependentPathIsExact) {
  // With exactly one dependent path Eq. 6 is exact, not just a bound.
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    SmallWorld w(seed);
    const auto basis = independent_paths(*w.system);
    // Find one path outside the basis (dependent on it).
    std::vector<std::size_t> extra;
    for (std::size_t q = 0; q < w.system->path_count(); ++q) {
      if (std::find(basis.begin(), basis.end(), q) == basis.end()) {
        extra.push_back(q);
      }
    }
    if (extra.empty()) continue;
    auto subset = basis;
    subset.push_back(extra.front());
    ExactEr exact(*w.system, *w.model);
    ProbBoundEr bound(*w.system, *w.model);
    EXPECT_NEAR(bound.evaluate(subset), exact.evaluate(subset), 1e-9)
        << "seed " << seed;
  }
}

TEST(ProbBound, AvailabilityAccessor) {
  SmallWorld w(55);
  ProbBoundEr bound(*w.system, *w.model);
  for (std::size_t q = 0; q < w.system->path_count(); ++q) {
    EXPECT_NEAR(bound.availability(q),
                w.system->expected_availability(q, *w.model), 1e-12);
  }
}

// --------------------------------------------------------------------------
// Monte Carlo engine
// --------------------------------------------------------------------------

TEST(MonteCarlo, ConvergesToExact) {
  SmallWorld w(70);
  ExactEr exact(*w.system, *w.model);
  Rng rng(70);
  MonteCarloEr mc(*w.system, *w.model, 4000, rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double truth = exact.evaluate(all);
  EXPECT_NEAR(mc.evaluate(all), truth, 0.05 * truth + 0.2);
}

TEST(MonteCarlo, FewRunsStillValidRange) {
  SmallWorld w(71);
  Rng rng(71);
  MonteCarloEr mc(*w.system, *w.model, 50, rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double est = mc.evaluate(all);
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, static_cast<double>(w.system->full_rank()));
}

TEST(MonteCarlo, ValidatesArguments) {
  SmallWorld w(72);
  Rng rng(72);
  EXPECT_THROW(MonteCarloEr(*w.system, *w.model, 0, rng),
               std::invalid_argument);
}

TEST(MonteCarlo, DeterministicGivenRngState) {
  SmallWorld w(73);
  Rng rng1(9);
  Rng rng2(9);
  MonteCarloEr a(*w.system, *w.model, 100, rng1);
  MonteCarloEr b(*w.system, *w.model, 100, rng2);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_DOUBLE_EQ(a.evaluate(all), b.evaluate(all));
}

TEST(MonteCarlo, ParallelEvaluateMatchesSerial) {
  SmallWorld w(74);
  Rng rng(74);
  MonteCarloEr mc(*w.system, *w.model, 500, rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double serial = mc.evaluate(all);
  for (std::size_t threads : {1u, 2u, 3u, 7u}) {
    EXPECT_NEAR(mc.evaluate_parallel(all, threads), serial, 1e-9)
        << threads << " threads";
  }
  // Default thread count also agrees.
  EXPECT_NEAR(mc.evaluate_parallel(all), serial, 1e-9);
}

TEST(MonteCarlo, ParallelEvaluateBitwiseEqualAcrossThreadCounts) {
  // evaluate() and evaluate_parallel() both sum fixed 64-scenario chunks
  // and reduce them in chunk order, so the parallel answer is bitwise
  // identical to the serial one at every worker count — not merely close.
  SmallWorld w(76);
  Rng rng(76);
  // 333 scenarios: several chunks plus a ragged tail.
  MonteCarloEr mc(*w.system, *w.model, 333, rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double serial = mc.evaluate(all);
  for (std::size_t threads : {1u, 2u, 3u, 7u, 8u}) {
    EXPECT_EQ(mc.evaluate_parallel(all, threads), serial)
        << threads << " threads";
  }
  Rng sub_rng(77);
  const auto subset = random_subset(w.system->path_count(), sub_rng);
  EXPECT_EQ(mc.evaluate_parallel(subset, 8), mc.evaluate(subset));
}

TEST(MonteCarlo, ParallelEvaluateEdgeCases) {
  SmallWorld w(75);
  Rng rng(75);
  MonteCarloEr mc(*w.system, *w.model, 3, rng);  // Fewer scenarios than threads.
  std::vector<std::size_t> subset = {0, 1};
  EXPECT_NEAR(mc.evaluate_parallel(subset, 16), mc.evaluate(subset), 1e-12);
  EXPECT_NEAR(mc.evaluate_parallel({}, 4), 0.0, 1e-12);
}

// --------------------------------------------------------------------------
// Accumulators: gains must match evaluate() differences
// --------------------------------------------------------------------------

class AccumulatorConsistency
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AccumulatorConsistency, GainsMatchEvaluateDeltas) {
  SmallWorld w(80);
  Rng rng(80);
  std::unique_ptr<ErEngine> engine;
  const std::string which = GetParam();
  if (which == "exact") {
    engine = std::make_unique<ExactEr>(*w.system, *w.model);
  } else if (which == "mc") {
    engine = std::make_unique<MonteCarloEr>(*w.system, *w.model, 200, rng);
  } else if (which == "bound") {
    engine = std::make_unique<ProbBoundEr>(*w.system, *w.model);
  } else {
    std::vector<double> theta(w.system->path_count());
    for (std::size_t q = 0; q < theta.size(); ++q) {
      theta[q] = w.system->expected_availability(q, *w.model);
    }
    engine = std::make_unique<IndependentPathEr>(*w.system, theta);
  }

  auto acc = engine->make_accumulator();
  std::vector<std::size_t> selected;
  Rng order_rng(81);
  std::vector<std::size_t> order(w.system->path_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  order_rng.shuffle(order);
  for (std::size_t q : order) {
    const double before = engine->evaluate(selected);
    auto with = selected;
    with.push_back(q);
    const double after = engine->evaluate(with);
    EXPECT_NEAR(acc->gain(q), after - before, 1e-9)
        << which << " path " << q << " at size " << selected.size();
    acc->add(q);
    selected = with;
    EXPECT_NEAR(acc->value(), after, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, AccumulatorConsistency,
                         ::testing::Values("exact", "mc", "bound", "indep"));

// The scenario accumulator reduces each path by its link ids; the testkit
// reference reduces the same path's dense full-width row.  On AS1239 at
// 400 paths with the service's monte-rome mixture, every gain along a
// trajectory, every value and the RoMe selection must be bitwise equal.
TEST(ScenarioAccumulator, UnitRowsMatchDenseRowsOnAS1239) {
  exp::WorkloadSpec spec;
  spec.topology = graph::IspTopology::kAS1239;
  spec.candidate_paths = 400;
  spec.failure_intensity = 5.0;
  spec.seed = 1000;
  const exp::Workload w = exp::make_workload(spec);
  ASSERT_EQ(w.system->path_count(), 400u);
  Rng rng(w.seed * 101);  // The service's monte-rome seeding.
  const MonteCarloEr engine(*w.system, *w.failures, 50, rng);

  std::vector<std::size_t> trajectory(w.system->path_count());
  std::iota(trajectory.begin(), trajectory.end(), std::size_t{0});
  Rng pick(17);
  pick.shuffle(trajectory);
  trajectory.resize(30);
  const std::vector<double> cost = w.costs.path_costs(*w.system);
  const double budget = 0.1 * std::accumulate(cost.begin(), cost.end(), 0.0);
  EXPECT_EQ(testkit::scenario_rows_diff(*w.system, w.costs, engine,
                                        trajectory, budget),
            "");
}

// --------------------------------------------------------------------------
// IndependentPathEr (Eq. 11)
// --------------------------------------------------------------------------

TEST(IndependentPathEr, IndependentPathsSumTheta) {
  SmallWorld w(90);
  std::vector<double> theta(w.system->path_count(), 0.0);
  for (std::size_t q = 0; q < theta.size(); ++q) {
    theta[q] = 0.1 + 0.05 * static_cast<double>(q % 10);
  }
  IndependentPathEr er(*w.system, theta);
  const auto basis = independent_paths(*w.system);
  double expected = 0.0;
  for (std::size_t q : basis) expected += theta[q];
  EXPECT_NEAR(er.evaluate(basis), expected, 1e-9);
}

TEST(IndependentPathEr, ClampsOptimisticTheta) {
  // UCB estimates theta + bonus can exceed 1; contributions must clamp.
  SmallWorld w(91);
  std::vector<double> theta(w.system->path_count(), 2.5);
  IndependentPathEr er(*w.system, theta);
  const auto basis = independent_paths(*w.system);
  EXPECT_NEAR(er.evaluate(basis), static_cast<double>(basis.size()), 1e-9);
}

TEST(IndependentPathEr, DependentPathFormula) {
  // Three disjoint single-link paths 0,1 and a path equal to 0+1.
  std::vector<tomo::ProbePath> paths(3);
  paths[0].links = {0};
  paths[0].hops = 1;
  paths[1].links = {1};
  paths[1].hops = 1;
  paths[2].links = {0, 1};
  paths[2].hops = 2;
  tomo::PathSystem sys(2, paths);
  const std::vector<double> theta = {0.9, 0.8, 0.7};
  IndependentPathEr er(sys, theta);
  // ER({0,1,2}) = 0.9 + 0.8 + 0.7 * (1 - 0.9*0.8).
  EXPECT_NEAR(er.evaluate({0, 1, 2}), 0.9 + 0.8 + 0.7 * (1 - 0.72), 1e-9);
}

TEST(IndependentPathEr, SizeMismatchThrows) {
  SmallWorld w(92);
  EXPECT_THROW(IndependentPathEr(*w.system, std::vector<double>{0.5}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rnt::core
