// The optimizer zoo (src/core/selectors) against its oracles.
//
// Three correctness anchors: branch-and-bound must reproduce the
// testkit's exhaustive enumeration decision for decision (same paths,
// bitwise objective), lazy greedy (CELF) must be bitwise identical to
// eager RoMe on every engine, and every zoo member must clear the
// (1 - 1/sqrt(e)) greedy guarantee against the exact optimum.  The
// remaining tests pin the sharp edges: admissible-bound dominance,
// deterministic tie-breaking, the loud node-cap failure, CELF staleness
// across budget steps and zero-gain ties, GainMemo isolation between
// runs, and the CLI/service plumbing (default behavior byte-identical
// to the pre-registry code, engine choice composing with optimizer
// choice).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_commands.h"
#include "testkit/exhaustive.h"
#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "core/rome.h"
#include "core/selectors/branch_and_bound.h"
#include "core/selectors/lazy_greedy.h"
#include "core/selectors/local_search.h"
#include "core/selectors/selector.h"
#include "core/selectors/stochastic_greedy.h"
#include "exp/workload.h"
#include "service/service.h"
#include "testkit/checks.h"
#include "testkit/instance.h"
#include "testkit/oracles.h"
#include "testkit/table_engine.h"
#include "util/flags.h"
#include "util/rng.h"

namespace rnt {
namespace {

constexpr double kTol = 1e-9;

double instance_total_cost(const testkit::TestInstance& inst) {
  double total = 0.0;
  for (const double c : inst.path_costs) total += c;
  return total;
}

double workload_total_cost(const exp::Workload& w) {
  std::vector<std::size_t> all(w.system->path_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return w.costs.subset_cost(*w.system, all);
}

/// A small instance with exact duplicate paths and unit costs: a dense
/// source of exact weight ties and zero marginal gains.
testkit::TestInstance tied_instance() {
  return testkit::make_instance(
      /*path_links=*/{{0}, {0}, {1}, {1}, {0, 1}, {2}},
      /*link_probs=*/{0.2, 0.3, 0.25},
      /*path_costs=*/{1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
      /*check_seed=*/7, "tied");
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

TEST(SelectorRegistry, NamesConstructAndRoundTrip) {
  const std::vector<std::string> names = core::selector_names();
  ASSERT_EQ(names.size(), 6u);
  for (const std::string& name : names) {
    const auto selector = core::make_selector(name);
    ASSERT_NE(selector, nullptr);
    EXPECT_EQ(selector->name(), name);
  }
}

TEST(SelectorRegistry, UnknownNameThrows) {
  EXPECT_THROW(core::make_selector("gradient-descent"),
               std::invalid_argument);
  EXPECT_THROW(core::make_selector(""), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Branch-and-bound vs the exhaustive oracles
// --------------------------------------------------------------------------

TEST(BranchAndBound, MatchesEnumerationOracleExactly) {
  std::size_t total_pruned = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const testkit::TestInstance inst = testkit::generate_instance(seed);
    const testkit::ExhaustiveErTable table(inst);
    const testkit::TableEngine engine(table);
    const core::ProbBoundEr prob_bound(inst.system, inst.model);
    for (const double frac : {0.35, 0.55, 0.8}) {
      const double budget = frac * instance_total_cost(inst);
      const testkit::OracleSelection opt =
          testkit::exhaustive_best_selection(inst, budget);
      for (const bool use_prob_bound : {false, true}) {
        core::BranchAndBoundOptions options;
        options.bound_engine = use_prob_bound ? &prob_bound : nullptr;
        const core::BranchAndBoundSelector bnb(options);
        core::SelectorStats stats;
        const core::Selection sel =
            bnb.select(inst.system, inst.costs, budget, engine, &stats);
        EXPECT_EQ(sel.paths, opt.paths)
            << "seed " << seed << " frac " << frac << " prob_bound "
            << use_prob_bound;
        EXPECT_EQ(sel.objective, opt.objective);  // Bitwise.
        EXPECT_EQ(sel.cost, opt.cost);            // Bitwise.
        EXPECT_GT(stats.nodes_explored, 0u);
        total_pruned += stats.nodes_pruned;
      }
    }
  }
  // The bound must actually cut work somewhere across the sweep —
  // otherwise it is enumeration wearing a costume.
  EXPECT_GT(total_pruned, 0u);
}

TEST(BranchAndBound, AgreesWithCoreExhaustiveObjective) {
  // core::exhaustive_optimum breaks ties differently (no mask order, no
  // budget tolerance), so cross-check the achieved objective, not paths.
  for (std::uint64_t seed = 3; seed <= 6; ++seed) {
    const testkit::TestInstance inst = testkit::generate_instance(seed);
    const testkit::ExhaustiveErTable table(inst);
    const testkit::TableEngine engine(table);
    const double budget = 0.6 * instance_total_cost(inst);
    const core::Selection brute = core::exhaustive_optimum(
        inst.system, inst.costs, budget, engine, /*max_paths=*/16);
    const core::Selection sel = core::BranchAndBoundSelector().select(
        inst.system, inst.costs, budget, engine);
    EXPECT_NEAR(sel.objective, brute.objective, kTol) << "seed " << seed;
  }
}

TEST(BranchAndBound, ProbBoundDominatesEveryNodeContainingTheOptimum) {
  // Admissibility, checked exhaustively: ProbBound of any subset is at
  // least its exact ER, so no node whose relaxation contains the optimum
  // can be pruned at the 1e-9 margin.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const testkit::TestInstance inst = testkit::generate_instance(seed);
    const testkit::ExhaustiveErTable table(inst);
    const core::ProbBoundEr bound(inst.system, inst.model);
    const std::size_t n = inst.path_count();
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
      std::vector<std::size_t> subset;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) subset.push_back(i);
      }
      EXPECT_GE(bound.evaluate(subset), table.er(mask) - kTol)
          << "seed " << seed << " mask " << mask;
    }
  }
}

TEST(BranchAndBound, DeterministicTieBreaking) {
  const testkit::TestInstance inst = tied_instance();
  const testkit::ExhaustiveErTable table(inst);
  const testkit::TableEngine engine(table);
  for (const double budget : {1.0, 2.0, 2.5, 3.0, 6.0}) {
    const testkit::OracleSelection opt =
        testkit::exhaustive_best_selection(inst, budget);
    const core::Selection a = core::BranchAndBoundSelector().select(
        inst.system, inst.costs, budget, engine);
    const core::Selection b = core::BranchAndBoundSelector().select(
        inst.system, inst.costs, budget, engine);
    EXPECT_EQ(a.paths, opt.paths) << "budget " << budget;
    EXPECT_EQ(a.paths, b.paths);
    EXPECT_EQ(a.objective, b.objective);
  }
}

TEST(BranchAndBound, NodeCapFailsLoudly) {
  const testkit::TestInstance inst = testkit::generate_instance(2);
  const testkit::ExhaustiveErTable table(inst);
  const testkit::TableEngine engine(table);
  // The exclude-first spine alone costs paths+1 nodes, so a cap of 4 on
  // a 3-path instance is guaranteed to trip regardless of pruning.
  ASSERT_EQ(inst.path_count(), 3u);
  core::BranchAndBoundOptions options;
  options.max_nodes = 4;
  const core::BranchAndBoundSelector bnb(options);
  EXPECT_THROW(bnb.select(inst.system, inst.costs,
                          0.5 * instance_total_cost(inst), engine),
               std::runtime_error);
}

TEST(BranchAndBound, RejectsTooManyPaths) {
  std::vector<std::vector<std::uint32_t>> path_links(17, {0u});
  const testkit::TestInstance inst = testkit::make_instance(
      std::move(path_links), {0.1}, std::vector<double>(17, 1.0), 1, "wide");
  const core::ExactEr engine(inst.system, inst.model);
  EXPECT_THROW(core::BranchAndBoundSelector().select(inst.system, inst.costs,
                                                     4.0, engine),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Lazy greedy (CELF) == eager RoMe, bitwise
// --------------------------------------------------------------------------

TEST(LazyGreedy, BitwiseEagerAcrossEnginesAndBudgets) {
  const exp::Workload w = exp::make_custom_workload(20, 40, 48, 5, 5.0);
  const double total = workload_total_cost(w);
  const core::ProbBoundEr prob(*w.system, *w.failures);

  for (const double frac : {0.05, 0.15, 0.3, 0.5, 0.8}) {
    const double budget = frac * total;
    for (int which = 0; which < 2; ++which) {
      Rng mc_rng(w.seed * 101);
      const core::MonteCarloEr monte(*w.system, *w.failures, 50, mc_rng);
      const core::ErEngine& engine =
          which == 0 ? static_cast<const core::ErEngine&>(prob) : monte;

      core::SelectorStats lazy_stats, eager_stats;
      const core::Selection lazy = core::LazyGreedySelector().select(
          *w.system, w.costs, budget, engine, &lazy_stats);
      core::SelectorStats rome_stats;
      const core::Selection eager =
          core::rome_eager(*w.system, w.costs, budget, engine, &rome_stats);
      EXPECT_EQ(lazy.paths, eager.paths)
          << "engine " << engine.name() << " frac " << frac;
      EXPECT_EQ(lazy.objective, eager.objective);  // Bitwise.
      EXPECT_EQ(lazy.cost, eager.cost);            // Bitwise.
      // The point of CELF: far fewer gain evaluations than the scan.
      EXPECT_LT(lazy_stats.gain_evaluations, rome_stats.gain_evaluations);
    }
  }
}

TEST(LazyGreedy, StaleEntriesAcrossBudgetSteps) {
  // A budget that forces the fresh top to be dropped (too expensive)
  // while cheaper stale entries remain queued — the step where a stale
  // cached weight must not be trusted.
  const testkit::TestInstance inst = testkit::make_instance(
      {{0, 1}, {0}, {1}, {2}, {1, 2}},
      {0.3, 0.25, 0.2},
      {5.0, 1.0, 1.0, 1.5, 4.0},
      11, "budget-step");
  const testkit::ExhaustiveErTable table(inst);
  const testkit::TableEngine engine(table);
  const double total = instance_total_cost(inst);
  for (int step = 1; step <= 25; ++step) {
    const double budget = total * static_cast<double>(step) / 25.0;
    const core::Selection lazy = core::LazyGreedySelector().select(
        inst.system, inst.costs, budget, engine);
    const core::Selection eager =
        core::rome_eager(inst.system, inst.costs, budget, engine);
    EXPECT_EQ(lazy.paths, eager.paths) << "budget " << budget;
    EXPECT_EQ(lazy.objective, eager.objective);
    EXPECT_EQ(lazy.cost, eager.cost);
  }
}

TEST(LazyGreedy, ZeroGainTiesCommitInEagerOrder) {
  // Duplicate paths: once one copy is selected the other's gain is
  // exactly zero, and zero-weight entries still commit while the budget
  // lasts (Algorithm 1 drops nothing early).
  const testkit::TestInstance inst = tied_instance();
  const testkit::ExhaustiveErTable table(inst);
  const testkit::TableEngine engine(table);
  const core::Selection lazy = core::LazyGreedySelector().select(
      inst.system, inst.costs, 6.0, engine);
  const core::Selection eager =
      core::rome_eager(inst.system, inst.costs, 6.0, engine);
  EXPECT_EQ(lazy.paths, eager.paths);
  EXPECT_EQ(lazy.objective, eager.objective);
  EXPECT_EQ(lazy.size(), 6u);  // Everything affordable gets committed.
}

TEST(LazyGreedy, PathsThatCannotFitAreNeverRefreshed) {
  // Unit costs and a budget of one: every path fits alone, and none fits
  // after the first commit.  The one scan on the empty selection seeds
  // the heap and picks the best single path, and every later pop is
  // dropped unrefreshed, so CELF makes exactly one gain evaluation per
  // path and still commits what eager commits.
  const exp::Workload w = exp::make_custom_workload(20, 40, 48, 5, 5.0);
  const tomo::CostModel unit = tomo::CostModel::unit();
  const core::ProbBoundEr prob(*w.system, *w.failures);
  Rng mc_rng(w.seed * 101);
  const core::MonteCarloEr monte(*w.system, *w.failures, 50, mc_rng);
  for (const core::ErEngine* engine :
       {static_cast<const core::ErEngine*>(&prob),
        static_cast<const core::ErEngine*>(&monte)}) {
    core::SelectorStats stats;
    const core::Selection lazy = core::LazyGreedySelector().select(
        *w.system, unit, 1.0, *engine, &stats);
    const core::Selection eager =
        core::rome_eager(*w.system, unit, 1.0, *engine);
    EXPECT_EQ(stats.gain_evaluations, w.system->path_count())
        << engine->name();
    EXPECT_EQ(lazy.size(), 1u);
    EXPECT_EQ(lazy.paths, eager.paths);
    EXPECT_EQ(lazy.objective, eager.objective);  // Bitwise.
    EXPECT_EQ(lazy.cost, eager.cost);
  }
}

TEST(LazyGreedy, WeightFormulaMatchesRome) {
  // The shared cost-benefit ratio: gain / max(cost, 1e-12), free paths
  // effectively infinite.  Any drift here silently breaks bitwise parity
  // with rome.cpp.
  EXPECT_EQ(core::selector_detail::weight_of(2.0, 4.0), 0.5);
  EXPECT_EQ(core::selector_detail::weight_of(3.0, 0.0), 3.0 / 1e-12);
  EXPECT_EQ(core::selector_detail::weight_of(0.0, 5.0), 0.0);
}

TEST(LazyGreedy, GainMemoDoesNotLeakBetweenRuns) {
  // One long-lived kernel engine (whose accumulators share rank memo
  // machinery) must answer repeated selector runs bitwise identically —
  // no state bleeding from a previous run's GainMemo or rank cache.
  const exp::Workload w = exp::make_custom_workload(16, 32, 24, 9, 5.0);
  Rng rng(w.seed * 101);
  const core::KernelErEngine engine =
      core::KernelErEngine::monte_carlo(*w.system, *w.failures, 50, rng);
  const double budget = 0.3 * workload_total_cost(w);

  const core::Selection first =
      core::LazyGreedySelector().select(*w.system, w.costs, budget, engine);
  const core::Selection eager =
      core::rome_eager(*w.system, w.costs, budget, engine);
  const core::Selection second =
      core::LazyGreedySelector().select(*w.system, w.costs, budget, engine);
  EXPECT_EQ(first.paths, second.paths);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.paths, eager.paths);
  EXPECT_EQ(first.objective, eager.objective);
}

// Gain evaluations the heap-only loop made on the two tail cases below.
constexpr std::size_t kTailFullBudgetEvaluations = 301;
constexpr std::size_t kTailPartBudgetEvaluations = 232;

/// What one lazy-greedy run on a TailCase did.
struct TailRun {
  std::size_t size = 0;         ///< Paths committed.
  std::size_t zeros = 0;        ///< Of them, commits at gain exactly 0.
  std::size_t evaluations = 0;  ///< Gain evaluations.
};

/// Plan-warm's kernel-rome shape, small: a sliced MC-50 kernel engine
/// whose rank saturates early, so a large budget leaves a long run of
/// commits at weight exactly 0 (lazy greedy's zero-gain tail).
struct TailCase {
  exp::Workload w = exp::make_custom_workload(20, 40, 48, 5, 5.0);
  std::unique_ptr<core::KernelErEngine> engine;

  TailCase() {
    Rng rng(w.seed * 101);
    engine = std::make_unique<core::KernelErEngine>(
        core::KernelErEngine::monte_carlo(*w.system, *w.failures, 50, rng));
    engine->set_kernel_mode(core::KernelMode::kSliced);
  }

  /// Lazy greedy at `budget`, checked bitwise against eager.
  TailRun run(double budget) const {
    core::SelectorStats stats;
    const core::Selection lazy = core::LazyGreedySelector().select(
        *w.system, w.costs, budget, *engine, &stats);
    const core::Selection eager =
        core::rome_eager(*w.system, w.costs, budget, *engine);
    EXPECT_EQ(lazy.paths, eager.paths);
    EXPECT_EQ(lazy.objective, eager.objective);  // Bitwise.
    EXPECT_EQ(lazy.cost, eager.cost);            // Bitwise.
    TailRun r;
    r.size = lazy.size();
    r.evaluations = stats.gain_evaluations;
    auto acc = engine->make_accumulator();
    for (const std::size_t p : lazy.paths) {
      if (acc->gain(p) == 0.0) ++r.zeros;
      acc->add(p);
    }
    return r;
  }
};

// Every path fits: after saturation every remaining path commits at
// weight 0, and the tail scan must make exactly the gain calls the heap
// loop it replaced made (the pinned count).
TEST(LazyGreedy, ZeroGainTailCommitsEverythingAsTheHeapDid) {
  const TailCase c;
  const TailRun r = c.run(workload_total_cost(c.w));
  EXPECT_EQ(r.size, c.w.system->path_count());
  EXPECT_GE(3 * r.zeros, r.size);  // A third of the run is the tail.
  EXPECT_EQ(r.evaluations, kTailFullBudgetEvaluations);
}

// The budget runs out partway through the tail: paths that no longer fit
// drop out of the scan unrefreshed, as they dropped out of the heap.
TEST(LazyGreedy, ZeroGainTailBudgetRunsOutMidway) {
  const TailCase c;
  const TailRun r = c.run(0.7 * workload_total_cost(c.w));
  EXPECT_LT(r.size, c.w.system->path_count());
  EXPECT_GT(r.zeros, 0u);
  EXPECT_EQ(r.evaluations, kTailPartBudgetEvaluations);
}

// --------------------------------------------------------------------------
// Stochastic greedy
// --------------------------------------------------------------------------

TEST(StochasticGreedy, DeterministicGivenSeed) {
  const exp::Workload w = exp::make_custom_workload(16, 32, 24, 4, 5.0);
  const core::ProbBoundEr engine(*w.system, *w.failures);
  const double budget = 0.3 * workload_total_cost(w);
  const core::Selection a = core::StochasticGreedySelector(99, 5).select(
      *w.system, w.costs, budget, engine);
  const core::Selection b = core::StochasticGreedySelector(99, 5).select(
      *w.system, w.costs, budget, engine);
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_LE(a.cost, budget + kTol);
}

TEST(StochasticGreedy, FullSampleDegeneratesToEager) {
  const exp::Workload w = exp::make_custom_workload(16, 32, 24, 4, 5.0);
  const core::ProbBoundEr engine(*w.system, *w.failures);
  for (const double frac : {0.2, 0.4, 0.7}) {
    const double budget = frac * workload_total_cost(w);
    const core::Selection stochastic =
        core::StochasticGreedySelector(1, w.system->path_count())
            .select(*w.system, w.costs, budget, engine);
    const core::Selection eager =
        core::rome_eager(*w.system, w.costs, budget, engine);
    EXPECT_EQ(stochastic.paths, eager.paths) << "frac " << frac;
    EXPECT_EQ(stochastic.objective, eager.objective);
  }
}

TEST(StochasticGreedy, SmallSampleDoesLessGainWork) {
  const exp::Workload w = exp::make_custom_workload(20, 40, 48, 5, 5.0);
  const core::ProbBoundEr engine(*w.system, *w.failures);
  const double budget = 0.3 * workload_total_cost(w);
  core::SelectorStats sampled_stats, eager_stats;
  core::StochasticGreedySelector(7, 6).select(*w.system, w.costs, budget,
                                              engine, &sampled_stats);
  core::make_selector("eager")->select(*w.system, w.costs, budget, engine,
                                       &eager_stats);
  EXPECT_LT(sampled_stats.gain_evaluations, eager_stats.gain_evaluations);
}

// --------------------------------------------------------------------------
// Local search
// --------------------------------------------------------------------------

TEST(LocalSearch, NeverWorseThanItsBaseAndWithinBudget) {
  const exp::Workload w = exp::make_custom_workload(16, 32, 24, 6, 5.0);
  const core::ProbBoundEr engine(*w.system, *w.failures);
  for (const double frac : {0.15, 0.3, 0.5}) {
    const double budget = frac * workload_total_cost(w);
    const core::Selection base = core::LazyGreedySelector().select(
        *w.system, w.costs, budget, engine);
    core::SelectorStats stats;
    const core::Selection polished = core::LocalSearchSelector().select(
        *w.system, w.costs, budget, engine, &stats);
    EXPECT_GE(polished.objective, base.objective - kTol) << "frac " << frac;
    EXPECT_LE(polished.cost, budget + kTol);
    EXPECT_GT(stats.evaluate_calls, 0u);
    EXPECT_EQ(polished.size(), base.size());  // Swaps preserve cardinality.
  }
}

TEST(LocalSearch, RepairsAGreedyMistake) {
  // Classic greedy trap under a knapsack: one mid-value path whose
  // cost-benefit ratio wins round one but blocks the budget for a
  // better pair.  Local search must swap its way out.
  const testkit::TestInstance inst = testkit::make_instance(
      {{0}, {1}, {0, 1, 2}},
      {0.4, 0.4, 0.05},
      {1.0, 1.0, 1.2},
      3, "greedy-trap");
  const testkit::ExhaustiveErTable table(inst);
  const testkit::TableEngine engine(table);
  const double budget = 2.0;
  const core::Selection greedy = core::LazyGreedySelector().select(
      inst.system, inst.costs, budget, engine);
  const core::Selection polished = core::LocalSearchSelector().select(
      inst.system, inst.costs, budget, engine);
  const testkit::OracleSelection opt =
      testkit::exhaustive_best_selection(inst, budget);
  EXPECT_GE(polished.objective, greedy.objective - kTol);
  // Whatever greedy did, the polished selection must reach the optimum
  // on this 3-path instance (the swap neighborhood covers it).
  EXPECT_NEAR(polished.objective, opt.objective, kTol);
}

// --------------------------------------------------------------------------
// The fuzz check wiring
// --------------------------------------------------------------------------

TEST(OptimizerBoundsCheck, PassesOnGeneratedInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const testkit::TestInstance inst = testkit::generate_instance(seed);
    const testkit::CheckResult result =
        testkit::check_optimizer_bounds(inst, {});
    EXPECT_TRUE(result.passed) << "seed " << seed << ": " << result.message;
  }
}

TEST(OptimizerBoundsCheck, IsRegistered) {
  const testkit::Check* check = testkit::find_check("optimizer-bounds");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->shrinkable);
  EXPECT_EQ(check->fn, &testkit::check_optimizer_bounds);
}

// --------------------------------------------------------------------------
// CLI plumbing: registry path is byte-identical by default and composes
// --------------------------------------------------------------------------

Flags make_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return Flags(static_cast<int>(args.size()), args.data());
}

std::string run_select(std::vector<const char*> args) {
  auto flags = make_flags(std::move(args));
  std::ostringstream out;
  EXPECT_EQ(cli::cmd_select(flags, out), 0);
  flags.finish();
  return out.str();
}

TEST(CliSelect, DefaultOutputByteIdenticalThroughRegistry) {
  const std::string before = run_select(
      {"--nodes", "16", "--links", "32", "--paths", "24", "--seed", "5"});
  const std::string after =
      run_select({"--nodes", "16", "--links", "32", "--paths", "24", "--seed",
                  "5", "--optimizer", "rome"});
  EXPECT_EQ(before, after);
  EXPECT_NE(before.find("prob-rome selected"), std::string::npos);
}

TEST(CliSelect, LazyGreedyMatchesDefaultSelection) {
  const std::string rome = run_select(
      {"--nodes", "16", "--links", "32", "--paths", "24", "--seed", "5"});
  const std::string lazy =
      run_select({"--nodes", "16", "--links", "32", "--paths", "24", "--seed",
                  "5", "--optimizer", "lazy-greedy"});
  // Same selection and table; only the algorithm label changes.
  EXPECT_EQ(rome.substr(rome.find(" selected ")),
            lazy.substr(lazy.find(" selected ")));
}

TEST(CliSelect, RejectsUnknownOptimizerAndBadCompositions) {
  {
    auto flags = make_flags({"--nodes", "16", "--links", "32", "--paths",
                             "24", "--optimizer", "annealing"});
    std::ostringstream out;
    EXPECT_THROW(cli::cmd_select(flags, out), std::invalid_argument);
  }
  {
    auto flags =
        make_flags({"--nodes", "16", "--links", "32", "--paths", "24",
                    "--algorithm", "select-path", "--optimizer", "eager"});
    std::ostringstream out;
    EXPECT_THROW(cli::cmd_select(flags, out), std::invalid_argument);
  }
  // --kernel picks kernel-rome's rank kernel; no other algorithm takes it.
  for (const char* algorithm : {"prob-rome", "monte-rome"}) {
    auto flags = make_flags({"--nodes", "16", "--links", "32", "--paths",
                             "24", "--algorithm", algorithm, "--kernel",
                             "sliced"});
    std::ostringstream out;
    EXPECT_THROW(cli::cmd_select(flags, out), std::invalid_argument)
        << algorithm;
  }
}

// --------------------------------------------------------------------------
// Service plumbing
// --------------------------------------------------------------------------

TEST(ServiceSelect, OptimizerFieldRoutesAndDefaultsMatch) {
  service::Service svc(service::ServiceConfig{.threads = 1,
                                              .cache_capacity = 2});
  const std::string base =
      "select nodes=16 links=32 paths=24 seed=5 intensity=5 budget-frac=0.3";
  const service::Response def = svc.handle_line(base);
  ASSERT_TRUE(def.ok) << def.error;
  EXPECT_EQ(def.at("optimizer"), "rome");

  const service::Response explicit_rome =
      svc.handle_line(base + " optimizer=rome");
  ASSERT_TRUE(explicit_rome.ok) << explicit_rome.error;
  EXPECT_EQ(def.fields, explicit_rome.fields);

  const service::Response lazy =
      svc.handle_line(base + " optimizer=lazy-greedy");
  ASSERT_TRUE(lazy.ok) << lazy.error;
  EXPECT_EQ(lazy.at("optimizer"), "lazy-greedy");
  // CELF == RoMe's lazy Minoux == eager on this workload: identical
  // selection, bitwise identical objective string over the wire.
  EXPECT_EQ(def.at("paths"), lazy.at("paths"));
  EXPECT_EQ(def.at("objective"), lazy.at("objective"));

  const service::Response bad = svc.handle_line(base + " optimizer=annealing");
  EXPECT_FALSE(bad.ok);
  const service::Response bad_combo = svc.handle_line(
      "select nodes=16 links=32 paths=24 algorithm=mat-rome optimizer=eager");
  EXPECT_FALSE(bad_combo.ok);
}

}  // namespace
}  // namespace rnt
