// Tests for the bit-packed scenario-rank engine: bitwise agreement with
// ScenarioErEngine on evaluate()/evaluate_parallel(), exact per-scenario
// rank equality, accumulator gain/value agreement, and the gain-memo
// regression (repeated gains inside lazy-greedy re-heapify must not
// recompute the basis reduction), and the shared rank memo under the
// service's concurrent use of one engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "core/rome.h"
#include "core/selectors/lazy_greedy.h"
#include "exp/workload.h"
#include "testkit/checks.h"
#include "util/rng.h"

namespace rnt {
namespace {

struct Twins {
  exp::Workload workload;
  std::unique_ptr<core::MonteCarloEr> scenario;
  std::unique_ptr<core::KernelErEngine> kernel;
};

Twins make_twins(std::size_t paths, std::uint64_t seed,
                 std::size_t runs = 64) {
  Twins t;
  t.workload = exp::make_custom_workload(40, 80, paths, seed, 5.0);
  Rng rng(seed * 31 + 7);
  t.scenario = std::make_unique<core::MonteCarloEr>(
      *t.workload.system, *t.workload.failures, runs, rng);
  // Same mixture, scenario for scenario.
  t.kernel = std::make_unique<core::KernelErEngine>(
      *t.workload.system, t.scenario->scenarios(), t.scenario->weights(),
      t.scenario->name());
  return t;
}

std::vector<std::size_t> some_subset(const tomo::PathSystem& system,
                                     Rng& rng, std::size_t size) {
  std::vector<std::size_t> all(system.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < size && !all.empty(); ++i) {
    const std::size_t j = rng.index(all.size());
    subset.push_back(all[j]);
    all.erase(all.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return subset;
}

TEST(KernelErEngine, EvaluateBitwiseEqualsScenarioEngine) {
  const Twins t = make_twins(60, 3);
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    const auto subset =
        some_subset(*t.workload.system, rng, 1 + rng.index(40));
    const double scenario = t.scenario->evaluate(subset);
    const double kernel = t.kernel->evaluate(subset);
    EXPECT_EQ(scenario, kernel) << "trial " << trial;  // Bitwise, not NEAR.
  }
  EXPECT_EQ(t.scenario->evaluate({}), t.kernel->evaluate({}));
}

TEST(KernelErEngine, ParallelBitwiseStableAcrossThreadCounts) {
  const Twins t = make_twins(50, 4);
  Rng rng(12);
  const auto subset = some_subset(*t.workload.system, rng, 30);
  const double serial = t.kernel->evaluate(subset);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{5}, std::size_t{8}}) {
    EXPECT_EQ(serial, t.kernel->evaluate_parallel(subset, threads))
        << threads << " threads";
  }
  EXPECT_EQ(serial, t.kernel->evaluate_parallel(subset, 0));
  // And against the base class's parallel path.
  EXPECT_EQ(t.scenario->evaluate_parallel(subset, 4), serial);
}

TEST(KernelErEngine, ScenarioRanksMatchSurvivingRank) {
  const Twins t = make_twins(40, 5);
  Rng rng(13);
  for (int trial = 0; trial < 6; ++trial) {
    const auto subset =
        some_subset(*t.workload.system, rng, 1 + rng.index(25));
    const auto ranks = t.kernel->scenario_ranks(subset);
    ASSERT_EQ(ranks.size(), t.scenario->scenario_count());
    for (std::size_t s = 0; s < ranks.size(); ++s) {
      EXPECT_EQ(ranks[s], t.workload.system->surviving_rank(
                              subset, t.scenario->scenarios()[s]))
          << "scenario " << s;
    }
  }
}

TEST(KernelErEngine, VirtualDispatchThroughScenarioBase) {
  // Callers holding a ScenarioErEngine& (fig5/fig6 --threads paths) must
  // reach the kernel override.
  const Twins t = make_twins(30, 6);
  const core::ScenarioErEngine& base = *t.kernel;
  Rng rng(14);
  const auto subset = some_subset(*t.workload.system, rng, 20);
  EXPECT_EQ(base.evaluate_parallel(subset, 3), t.kernel->evaluate(subset));
}

TEST(KernelAccumulator, GainsAndValueTrackScenarioAccumulator) {
  const Twins t = make_twins(45, 7);
  Rng rng(15);
  auto scenario_acc = t.scenario->make_accumulator();
  auto kernel_acc = t.kernel->make_accumulator();
  const auto order = some_subset(*t.workload.system, rng, 25);
  for (std::size_t path : order) {
    // Probe a few gains before each add; class-merged weights may reorder
    // the sum, hence NEAR at 1e-9 rather than bitwise.
    for (int probe = 0; probe < 3; ++probe) {
      const std::size_t q = rng.index(t.workload.system->path_count());
      EXPECT_NEAR(scenario_acc->gain(q), kernel_acc->gain(q), 1e-9);
    }
    scenario_acc->add(path);
    kernel_acc->add(path);
    EXPECT_NEAR(scenario_acc->value(), kernel_acc->value(), 1e-9);
  }
  // The committed value agrees with a from-scratch evaluate.
  EXPECT_NEAR(kernel_acc->value(), t.kernel->evaluate(order), 1e-9);
}

TEST(KernelAccumulator, RomeSelectsIdenticalPathsUnderBothEngines) {
  const Twins t = make_twins(55, 8);
  core::SelectorStats scenario_stats;
  core::SelectorStats kernel_stats;
  const auto with_scenario = core::rome(*t.workload.system, t.workload.costs,
                                        30.0, *t.scenario, &scenario_stats);
  const auto with_kernel = core::rome(*t.workload.system, t.workload.costs,
                                      30.0, *t.kernel, &kernel_stats);
  EXPECT_EQ(with_scenario.paths, with_kernel.paths);
  EXPECT_NEAR(with_scenario.objective, with_kernel.objective, 1e-9);
}

/// Replays `trajectory` on the scalar engine's accumulator, then twice on
/// the sliced engine's (on a cold rank memo, then on the memo the first
/// pass left): before every add, the gain of each of the first `paths`
/// paths must be the scalar one bit for bit, and so must value() after
/// it.  Returns the scalar value after each add.
std::vector<double> expect_sliced_matches_scalar(
    const core::KernelErEngine& sliced, const core::KernelErEngine& scalar,
    const std::vector<std::size_t>& trajectory, std::size_t paths) {
  std::vector<std::vector<double>> gains;  // Scalar gains before each add.
  std::vector<double> values;              // Scalar value after each add.
  auto scalar_acc = scalar.make_accumulator();
  for (const std::size_t path : trajectory) {
    std::vector<double> g(paths);
    for (std::size_t q = 0; q < paths; ++q) g[q] = scalar_acc->gain(q);
    gains.push_back(std::move(g));
    scalar_acc->add(path);
    values.push_back(scalar_acc->value());
  }
  for (const char* memo : {"cold", "warm"}) {
    auto acc = sliced.make_accumulator();
    for (std::size_t i = 0; i < trajectory.size(); ++i) {
      for (std::size_t q = 0; q < paths; ++q) {
        EXPECT_EQ(acc->gain(q), gains[i][q])
            << memo << " memo: gain(" << q << ") before add " << i;
      }
      acc->add(trajectory[i]);
      EXPECT_EQ(acc->value(), values[i]) << memo << " memo: add " << i;
      if (::testing::Test::HasFailure()) return values;
    }
    for (std::size_t q = 0; q < paths; ++q) {
      EXPECT_EQ(acc->gain(q), scalar_acc->gain(q)) << memo << " memo: " << q;
    }
  }
  return values;
}

// A shape where classes really saturate: AS1755 at 400 candidate paths,
// failure intensity 5 and the service's MC-50 mixture.  A full-budget RoMe
// trajectory commits every path and brings every class to its
// full-candidate rank early, so most later lanes are ones the sliced
// accumulator already knows to be dependent and skips.
TEST(KernelAccumulator, SlicedMatchesScalarBitwiseThroughSaturation) {
  exp::WorkloadSpec spec;
  spec.topology = graph::IspTopology::kAS1755;
  spec.candidate_paths = 400;
  spec.failure_intensity = 5.0;
  spec.seed = 3;
  const exp::Workload w = exp::make_workload(spec);
  const tomo::PathSystem& system = *w.system;
  const auto make = [&](core::KernelMode mode) {
    Rng rng(w.seed * 101);  // The service's kernel-rome seeding.
    auto e = std::make_unique<core::KernelErEngine>(
        core::KernelErEngine::monte_carlo(system, *w.failures, 50, rng));
    e->set_kernel_mode(mode);
    return e;
  };
  const auto sliced = make(core::KernelMode::kSliced);
  const auto scalar = make(core::KernelMode::kScalar);

  std::vector<std::size_t> all(system.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const std::vector<double> costs = w.costs.path_costs(system);
  const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
  // From the scalar engine, so the sliced engine's memo is still cold.
  const std::vector<std::size_t> trajectory =
      core::rome(system, w.costs, total, *scalar).paths;
  ASSERT_EQ(trajectory.size(), all.size());

  const std::vector<double> values =
      expect_sliced_matches_scalar(*sliced, *scalar, trajectory, all.size());
  ASSERT_FALSE(HasFailure());
  // Every class reached its full rank well before the end: the prefix up
  // to the last value change keeps the rank all candidates keep, in every
  // scenario.
  std::size_t full = 0;
  while (values[full] != values.back()) ++full;
  EXPECT_LT(2 * (full + 1), trajectory.size());
  const std::vector<std::size_t> prefix(trajectory.begin(),
                                        trajectory.begin() + full + 1);
  EXPECT_EQ(scalar->scenario_ranks(prefix), scalar->scenario_ranks(all));
}

// The one place a remembered verdict can be wrong to remember: an
// ambiguous lane whose float verdict is "independent".  Links 0-2 carry
// the rows 110, 011, 101 (determinant 2: the third is GF(2)-dependent but
// independent), links 3-6 the rows of J - I (determinant -3: the fourth
// is GF(3)-dependent but independent), so after seven commits the class
// is desynced in both fields and every query goes to the float tier.
// Path 7 (link 7) is then independent there; it must stay so after path 8
// (link 8) commits.
TEST(KernelAccumulator, SlicedForgetsNoIndependentFloatVerdict) {
  const std::vector<std::vector<graph::EdgeId>> rows = {
      {0, 1},    {1, 2},    {0, 2},    {4, 5, 6}, {3, 5, 6},
      {3, 4, 6}, {3, 4, 5}, {7},       {8}};
  std::vector<tomo::ProbePath> paths(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    paths[i].links = rows[i];
    paths[i].hops = rows[i].size();
  }
  const tomo::PathSystem system(9, paths);
  // No failure, and link 0 down: two classes.
  std::vector<failures::FailureVector> scenarios(2,
                                                 failures::FailureVector(9));
  scenarios[1][0] = true;
  const std::vector<double> weights = {0.75, 0.25};
  core::KernelErEngine sliced(system, scenarios, weights, "two");
  sliced.set_kernel_mode(core::KernelMode::kSliced);
  core::KernelErEngine scalar(system, scenarios, weights, "two");
  scalar.set_kernel_mode(core::KernelMode::kScalar);
  expect_sliced_matches_scalar(sliced, scalar, {0, 1, 2, 3, 4, 5, 6, 8, 7},
                               paths.size());
}

// ---------------------------------------------------------------------------
// Covered-column packing: the kernel packs only the links some candidate
// path crosses, and no answer may notice.
// ---------------------------------------------------------------------------

/// `kernel` against the scenario engine over its own mixture: evaluate()
/// and evaluate_parallel() bitwise and scenario_ranks() against the
/// elimination rank on each subset; then, along `trajectory`, every
/// path's gain before each add and value() after it, bitwise against
/// the class-level scenario engine (testkit::class_scenario_engine).
void expect_kernel_matches_scenario(
    const tomo::PathSystem& system, const core::KernelErEngine& kernel,
    const std::vector<std::vector<std::size_t>>& subsets,
    const std::vector<std::size_t>& trajectory) {
  const core::ScenarioErEngine scenario(system, kernel.scenarios(),
                                        kernel.weights(), kernel.name());
  for (const auto& subset : subsets) {
    const double reference = scenario.evaluate(subset);
    EXPECT_EQ(kernel.evaluate(subset), reference);  // Bitwise.
    EXPECT_EQ(kernel.evaluate_parallel(subset, 3), reference);
    const auto ranks = kernel.scenario_ranks(subset);
    for (std::size_t s = 0; s < ranks.size(); ++s) {
      EXPECT_EQ(ranks[s], system.surviving_rank(subset, kernel.scenarios()[s]))
          << "scenario " << s;
    }
  }
  const auto referee = testkit::class_scenario_engine(system, kernel);
  auto expected = referee->make_accumulator();
  auto acc = kernel.make_accumulator();
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    for (std::size_t q = 0; q < system.path_count(); ++q) {
      EXPECT_EQ(acc->gain(q), expected->gain(q))
          << "gain(" << q << ") before add " << i;
    }
    acc->add(trajectory[i]);
    expected->add(trajectory[i]);
    EXPECT_EQ(acc->value(), expected->value()) << "add " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

std::vector<bool> covered_links(const tomo::PathSystem& system) {
  std::vector<bool> covered(system.link_count(), false);
  for (std::size_t p = 0; p < system.path_count(); ++p) {
    for (const graph::EdgeId l : system.path(p).links) covered[l] = true;
  }
  return covered;
}

// What the link-wide packing built on the case below.
constexpr std::size_t kAS1239Classes = 30;
constexpr std::size_t kAS1239SlicedMemo = 145;
constexpr std::size_t kAS1239ScalarMemo = 67;

// AS1239 at 400 candidate paths: the paths cross 254 of the 972 links, and
// the service's MC-50 mixture fails links no path crosses.  Both kernels
// must still answer as the scenario engine does, bit for bit, and build
// the class structure and rank memo they built over all 972 columns (the
// counts are pinned from the link-wide packing).
TEST(KernelErEngine, CoveredColumnsMatchScenarioOnAS1239) {
  exp::WorkloadSpec spec;
  spec.topology = graph::IspTopology::kAS1239;
  spec.candidate_paths = 400;
  spec.failure_intensity = 5.0;
  spec.seed = 1000;
  const exp::Workload w = exp::make_workload(spec);
  const tomo::PathSystem& system = *w.system;
  const std::vector<bool> covered = covered_links(system);
  ASSERT_EQ(system.link_count(), 972u);
  ASSERT_EQ(std::count(covered.begin(), covered.end(), true), 254);

  Rng rng(w.seed * 101);  // The service's kernel-rome seeding.
  core::KernelErEngine sliced =
      core::KernelErEngine::monte_carlo(system, *w.failures, 50, rng);
  sliced.set_kernel_mode(core::KernelMode::kSliced);
  core::KernelErEngine scalar(system, sliced.scenarios(), sliced.weights(),
                              sliced.name());
  scalar.set_kernel_mode(core::KernelMode::kScalar);
  std::size_t uncovered_failures = 0;
  for (const failures::FailureVector& v : sliced.scenarios()) {
    for (std::size_t l = 0; l < v.size(); ++l) {
      if (v[l] && !covered[l]) ++uncovered_failures;
    }
  }
  ASSERT_GT(uncovered_failures, 0u);

  std::vector<std::size_t> all(system.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng pick(17);
  const std::vector<std::vector<std::size_t>> subsets = {
      all, some_subset(system, pick, 40), some_subset(system, pick, 150)};
  const std::vector<std::size_t> trajectory = some_subset(system, pick, 30);
  for (const core::KernelErEngine* kernel : {&sliced, &scalar}) {
    SCOPED_TRACE(core::kernel_mode_name(kernel->kernel_mode()));
    expect_kernel_matches_scenario(system, *kernel, subsets, trajectory);
  }
  EXPECT_EQ(sliced.scenario_classes().count(), kAS1239Classes);
  EXPECT_EQ(sliced.rank_memo_entries(core::KernelMode::kSliced),
            kAS1239SlicedMemo);
  EXPECT_EQ(scalar.rank_memo_entries(core::KernelMode::kScalar),
            kAS1239ScalarMemo);
}

/// A ring over links 1..k of k + 2 links, so the covered columns are
/// exactly 1..k and links 0 and k + 1 carry no path: paths {i, i+1} around
/// the ring (rationally full rank for odd k, one short for even k, and
/// one short over GF(2) either way), a chord over every ring link, and a
/// single-link path at the top covered column.
tomo::PathSystem ring_system(std::size_t k) {
  std::vector<tomo::ProbePath> paths;
  const auto add = [&](std::vector<graph::EdgeId> links) {
    tomo::ProbePath p;
    p.hops = links.size();
    p.links = std::move(links);
    paths.push_back(std::move(p));
  };
  for (std::size_t i = 1; i < k; ++i) {
    add({static_cast<graph::EdgeId>(i), static_cast<graph::EdgeId>(i + 1)});
  }
  add({1, static_cast<graph::EdgeId>(k)});
  std::vector<graph::EdgeId> chord(k);
  std::iota(chord.begin(), chord.end(), graph::EdgeId{1});
  add(std::move(chord));
  add({static_cast<graph::EdgeId>(k)});
  return tomo::PathSystem(k + 2, std::move(paths));
}

// Covered-column counts on either side of a word boundary (64 columns fit
// one word, 65 need two), with failures on both uncovered links.
TEST(KernelErEngine, CoveredColumnsAcrossTheWordBoundary) {
  for (const std::size_t k : {std::size_t{64}, std::size_t{65}}) {
    SCOPED_TRACE(k);
    const tomo::PathSystem system = ring_system(k);
    const std::vector<bool> covered = covered_links(system);
    ASSERT_EQ(std::count(covered.begin(), covered.end(), true),
              static_cast<std::ptrdiff_t>(k));
    ASSERT_FALSE(covered[0]);
    ASSERT_FALSE(covered[k + 1]);
    Rng rng(k);
    std::vector<failures::FailureVector> scenarios;
    for (int s = 0; s < 70; ++s) {
      failures::FailureVector v(k + 2, false);
      v[0] = rng.bernoulli(0.5);
      v[k + 1] = rng.bernoulli(0.5);
      for (std::size_t l = 1; l <= k; ++l) v[l] = rng.bernoulli(0.01);
      scenarios.push_back(std::move(v));
    }
    const std::vector<double> weights(scenarios.size(),
                                      1.0 / 70.0);
    std::vector<std::size_t> all(system.path_count());
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<std::size_t> trajectory = all;
    rng.shuffle(trajectory);
    Rng pick(k + 1);
    const std::vector<std::vector<std::size_t>> subsets = {
        all, some_subset(system, pick, k / 2)};
    for (const core::KernelMode mode :
         {core::KernelMode::kSliced, core::KernelMode::kScalar}) {
      SCOPED_TRACE(core::kernel_mode_name(mode));
      core::KernelErEngine kernel(system, scenarios, weights, "ring");
      kernel.set_kernel_mode(mode);
      expect_kernel_matches_scenario(system, kernel, subsets, trajectory);
    }
  }
}

TEST(KernelErEngine, SharedEngineMatchesSerialFreshEnginesUnderThreads) {
  // The service shares one engine, and so its rank memo, between two
  // workers.  Two kernel-rome selects (CELF and rome, different budgets)
  // and a stream of evaluates run at once on one sliced engine; each
  // answer must be bitwise the one the same call gets alone on a fresh
  // engine, on a cold memo and again on the memo the first round left.
  const Twins t = make_twins(120, 21, 160);
  const tomo::PathSystem& system = *t.workload.system;
  const auto fresh = [&] {
    auto e = std::make_unique<core::KernelErEngine>(
        system, t.scenario->scenarios(), t.scenario->weights(),
        t.scenario->name());
    e->set_kernel_mode(core::KernelMode::kSliced);
    return e;
  };
  const std::vector<double> costs = t.workload.costs.path_costs(system);
  const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
  const auto lazy_select = [&](const core::ErEngine& e) {
    return core::LazyGreedySelector().select(system, t.workload.costs,
                                             0.5 * total, e);
  };
  const auto rome_select = [&](const core::ErEngine& e) {
    return core::rome(system, t.workload.costs, 0.3 * total, e);
  };
  Rng rng(23);
  std::vector<std::vector<std::size_t>> subsets;
  for (int i = 0; i < 30; ++i) {
    subsets.push_back(some_subset(system, rng, 5 + rng.index(60)));
  }
  const auto evaluate_all = [&](const core::ErEngine& e) {
    std::vector<double> values;
    for (const auto& subset : subsets) values.push_back(e.evaluate(subset));
    return values;
  };

  const auto lazy_engine = fresh();
  const core::Selection lazy_ref = lazy_select(*lazy_engine);
  // The select alone fills the memo (ambiguous-lane verdicts), so the
  // threads below really share it.
  ASSERT_GT(lazy_engine->rank_memo_entries(core::KernelMode::kSliced), 0u);
  const core::Selection rome_ref = rome_select(*fresh());
  const std::vector<double> values_ref = evaluate_all(*fresh());

  const auto shared = fresh();
  for (int round = 0; round < 2; ++round) {
    core::Selection lazy, romed;
    std::vector<double> values;
    std::thread a([&] { lazy = lazy_select(*shared); });
    std::thread b([&] { romed = rome_select(*shared); });
    std::thread c([&] { values = evaluate_all(*shared); });
    a.join();
    b.join();
    c.join();
    EXPECT_EQ(lazy.paths, lazy_ref.paths) << "round " << round;
    EXPECT_EQ(lazy.objective, lazy_ref.objective);  // Bitwise.
    EXPECT_EQ(lazy.cost, lazy_ref.cost);
    EXPECT_EQ(romed.paths, rome_ref.paths) << "round " << round;
    EXPECT_EQ(romed.objective, rome_ref.objective);
    EXPECT_EQ(romed.cost, rome_ref.cost);
    EXPECT_EQ(values, values_ref) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Gain-memo regression (the lazy-greedy re-heapify fix)
// ---------------------------------------------------------------------------

TEST(GainMemo, RepeatedGainIsOneComputation) {
  const Twins t = make_twins(30, 9);
  for (const core::ErEngine* engine :
       {static_cast<const core::ErEngine*>(t.scenario.get()),
        static_cast<const core::ErEngine*>(t.kernel.get())}) {
    auto acc = engine->make_accumulator();
    EXPECT_EQ(acc->gain_computations(), 0u);
    const double first = acc->gain(3);
    EXPECT_EQ(acc->gain(3), first);
    EXPECT_EQ(acc->gain(3), first);
    EXPECT_EQ(acc->gain_computations(), 1u) << engine->name();
    acc->gain(4);
    EXPECT_EQ(acc->gain_computations(), 2u);
    // add() invalidates: the same path costs one fresh computation.
    acc->add(0);
    acc->gain(3);
    acc->gain(3);
    EXPECT_EQ(acc->gain_computations(), 3u);
  }
}

/// Forwards gain/add and counts requests, so a rome run can be audited for
/// cache effectiveness without touching its internals.
class CountingAccumulator : public core::ErAccumulator {
 public:
  CountingAccumulator(std::unique_ptr<core::ErAccumulator> inner,
                      std::size_t* requests, std::size_t* computations)
      : inner_(std::move(inner)),
        requests_(requests),
        computations_(computations) {}
  ~CountingAccumulator() override {
    *computations_ += inner_->gain_computations();
  }
  double gain(std::size_t path) const override {
    ++*requests_;
    return inner_->gain(path);
  }
  void add(std::size_t path) override { inner_->add(path); }
  double value() const override { return inner_->value(); }
  std::size_t gain_computations() const override {
    return inner_->gain_computations();
  }

 private:
  std::unique_ptr<core::ErAccumulator> inner_;
  std::size_t* requests_;
  std::size_t* computations_;
};

class CountingEngine : public core::ErEngine {
 public:
  explicit CountingEngine(const core::ErEngine& inner) : inner_(inner) {}
  double evaluate(const std::vector<std::size_t>& subset) const override {
    return inner_.evaluate(subset);
  }
  std::unique_ptr<core::ErAccumulator> make_accumulator() const override {
    return std::make_unique<CountingAccumulator>(inner_.make_accumulator(),
                                                 &requests, &computations);
  }
  std::string name() const override { return inner_.name(); }

  mutable std::size_t requests = 0;
  mutable std::size_t computations = 0;

 private:
  const core::ErEngine& inner_;
};

TEST(GainMemo, LazyGreedyComputesFewerGainsThanItRequests) {
  const Twins t = make_twins(60, 10);
  CountingEngine counted(*t.scenario);
  core::SelectorStats stats;
  const auto counted_selection =
      core::rome(*t.workload.system, t.workload.costs, 25.0, counted, &stats);
  EXPECT_EQ(counted.requests, stats.gain_evaluations);
  // The memo must absorb the re-heapify recomputations: strictly fewer
  // basis reductions than gain requests.  (The first pop after heap
  // population alone is a guaranteed repeat.)
  EXPECT_LT(counted.computations, counted.requests);
  // And caching is transparent: same selection as the raw engine.
  const auto raw_selection =
      core::rome(*t.workload.system, t.workload.costs, 25.0, *t.scenario);
  EXPECT_EQ(counted_selection.paths, raw_selection.paths);
  EXPECT_EQ(counted_selection.objective, raw_selection.objective);
}

}  // namespace
}  // namespace rnt
