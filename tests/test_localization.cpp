// Tests for failure localization, the combined-monitor path generator, and
// the Waxman topology generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>

#include "core/expected_rank.h"
#include "core/rome.h"
#include "exp/workload.h"
#include "graph/generators.h"
#include "tomo/localization.h"
#include "tomo/monitors.h"

namespace rnt {
namespace {

/// Line 0-1-2-3 with paths (l0), (l0,l1), (l0,l1,l2).
tomo::PathSystem line_system() {
  std::vector<tomo::ProbePath> paths(3);
  paths[0].links = {0};
  paths[0].hops = 1;
  paths[1].links = {0, 1};
  paths[1].hops = 2;
  paths[2].links = {0, 1, 2};
  paths[2].hops = 3;
  return tomo::PathSystem(3, paths);
}

// --------------------------------------------------------------------------
// localize_single_failure
// --------------------------------------------------------------------------

TEST(Localization, ExactWhenPatternSeparates) {
  const tomo::PathSystem sys = line_system();
  // l1 fails: paths 1, 2 fail, path 0 survives -> candidates {l1}
  // (l0 exonerated by path 0; l2 only on path 2, not on path 1).
  failures::FailureVector v = {false, true, false};
  const auto result = tomo::localize_single_failure(sys, {0, 1, 2}, v);
  ASSERT_TRUE(result.exact());
  EXPECT_EQ(result.candidates.front(), 1u);
}

TEST(Localization, AmbiguousWhenPatternCannotSeparate) {
  const tomo::PathSystem sys = line_system();
  // l2 fails: only path 2 fails; l2 is the only link of path 2 not on a
  // surviving path -> still exact here.  Use subset {2} alone instead:
  // all of l0, l1, l2 are candidates.
  failures::FailureVector v = {false, false, true};
  const auto result = tomo::localize_single_failure(sys, {2}, v);
  EXPECT_EQ(result.candidates.size(), 3u);
  EXPECT_FALSE(result.exact());
}

TEST(Localization, NoFailureNoCandidates) {
  const tomo::PathSystem sys = line_system();
  failures::FailureVector v(3, false);
  const auto result = tomo::localize_single_failure(sys, {0, 1, 2}, v);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(Localization, InvisibleFailure) {
  const tomo::PathSystem sys = line_system();
  // Probe only path 0; l2's failure is invisible.
  failures::FailureVector v = {false, false, true};
  const auto result = tomo::localize_single_failure(sys, {0}, v);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(Localization, CandidatesAlwaysContainTrueCulpritWhenVisible) {
  // Property: under a single-link failure, if any probed path fails, the
  // true culprit is among the candidates.
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 17, 5.0);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng(18);
  for (int t = 0; t < 50; ++t) {
    const auto v = w.failures->sample_exactly_k(1, rng);
    const auto failed =
        static_cast<graph::EdgeId>(std::find(v.begin(), v.end(), true) -
                                   v.begin());
    const auto result = tomo::localize_single_failure(*w.system, all, v);
    bool visible = false;
    for (std::size_t q : all) {
      if (!w.system->path_survives(q, v)) {
        visible = true;
        break;
      }
    }
    if (visible) {
      EXPECT_TRUE(std::binary_search(result.candidates.begin(),
                                     result.candidates.end(), failed));
    } else {
      EXPECT_TRUE(result.candidates.empty());
    }
  }
}

TEST(Localization, ScoreAccountingConsistent) {
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 19, 5.0);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng(20);
  const auto score =
      tomo::score_localization(*w.system, all, *w.failures, 100, rng);
  EXPECT_EQ(score.trials, 100u);
  EXPECT_EQ(score.exact + score.ambiguous + score.invisible, 100u);
  EXPECT_GE(score.mean_candidates, score.exact > 0 ? 1.0 : 0.0);
  EXPECT_LE(score.exact_fraction(), 1.0);
}

TEST(Localization, SingleFailureScoringNeverMisleads) {
  // Regression for the hit/misled conflation: with one concurrent failure
  // the lone culprit can never be exonerated, so misled must stay 0 and
  // hit_fraction must equal (exact + ambiguous) / trials — previously the
  // classifier silently counted culprit-missing trials as ambiguous.
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 19, 5.0);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng(30);
  const auto score =
      tomo::score_localization(*w.system, all, *w.failures, 120, rng, 1);
  EXPECT_EQ(score.misled, 0u);
  EXPECT_EQ(score.exact + score.ambiguous + score.invisible, 120u);
  EXPECT_NEAR(score.hit_fraction(),
              static_cast<double>(score.exact + score.ambiguous) / 120.0,
              1e-12);
}

TEST(Localization, ConcurrentFailuresSurfaceMisledTrials) {
  // Line 0-1-2-3 probed by (l0), (l0,l1), (l0,l1,l2): fail l0 AND l2
  // together and all three probes fail.  The single-link intersection is
  // {l0} — l2 is visible (path 2 crossed it and failed) yet missing from
  // the candidates, the textbook misled trial the old scorer filed under
  // "ambiguous".  With every link forced to fail, every trial must land
  // in the misled bucket and hit_fraction must be 0.
  const tomo::PathSystem sys = line_system();
  const failures::FailureModel certain = failures::uniform_model(3, 1.0);
  Rng rng(31);
  const auto score = tomo::score_localization(sys, {0, 1, 2}, certain, 20,
                                              rng, 3);
  EXPECT_EQ(score.trials, 20u);
  EXPECT_EQ(score.misled, 20u);
  EXPECT_EQ(score.exact + score.ambiguous + score.invisible, 0u);
  EXPECT_EQ(score.hit_fraction(), 0.0);
}

TEST(Localization, PairwiseAccountingPartitionsTrials) {
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 19, 5.0);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng(32);
  const auto score =
      tomo::score_localization(*w.system, all, *w.failures, 150, rng, 2);
  EXPECT_EQ(score.trials, 150u);
  EXPECT_EQ(score.exact + score.ambiguous + score.misled + score.invisible,
            150u);
}

/// localize_single_failure as a scan of every link: intersect the failed
/// probes' links, drop the surviving probes' links.
std::vector<graph::EdgeId> reference_candidates(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureVector& v) {
  std::vector<std::size_t> on_failed(system.link_count(), 0);
  std::vector<bool> exonerated(system.link_count(), false);
  std::size_t failed = 0;
  for (std::size_t q : subset) {
    const auto& links = system.path(q).links;
    if (system.path_survives(q, v)) {
      for (graph::EdgeId l : links) exonerated[l] = true;
    } else {
      for (graph::EdgeId l : links) {
        if (on_failed[l] == failed) on_failed[l] = failed + 1;
      }
      ++failed;
    }
  }
  std::vector<graph::EdgeId> candidates;
  if (failed == 0) return candidates;
  for (std::size_t l = 0; l < on_failed.size(); ++l) {
    if (on_failed[l] == failed && !exonerated[l]) {
      candidates.push_back(static_cast<graph::EdgeId>(l));
    }
  }
  return candidates;
}

/// Subsets for the reference comparisons: every path, 12 shuffled paths,
/// the same 12 with one listed twice, and no path.
std::vector<std::vector<std::size_t>> reference_subsets(
    const tomo::PathSystem& system) {
  std::vector<std::size_t> all(system.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng pick(33);
  std::vector<std::size_t> shuffled = all;
  pick.shuffle(shuffled);
  shuffled.resize(12);
  std::vector<std::size_t> twice = shuffled;  // a probe listed twice
  twice.insert(twice.begin() + 4, shuffled[7]);
  return {all, shuffled, twice, {}};
}

TEST(Localization, IndexedCandidatesMatchTheLinkScan) {
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 19, 5.0);
  for (const auto& subset : reference_subsets(*w.system)) {
    for (const std::size_t k : {1, 2, 3}) {
      Rng rng(50 + k);
      for (int t = 0; t < 200; ++t) {
        const auto v = w.failures->sample_exactly_k(k, rng);
        EXPECT_EQ(
            tomo::localize_single_failure(*w.system, subset, v).candidates,
            reference_candidates(*w.system, subset, v))
            << subset.size() << " probes, " << k << " failures, trial " << t;
      }
    }
  }
}

/// score_localization as a per-trial loop: a visibility pass over the
/// probes, then the link scan of reference_candidates, then a scan of
/// every link for the visible culprits.  The indexed scorer must
/// reproduce it exactly.
tomo::LocalizationScore reference_score(const tomo::PathSystem& system,
                                        const std::vector<std::size_t>& subset,
                                        const failures::FailureModel& model,
                                        std::size_t trials, Rng& rng,
                                        std::size_t concurrent_failures) {
  std::vector<bool> probed(system.link_count(), false);
  for (std::size_t q : subset) {
    for (graph::EdgeId l : system.path(q).links) probed[l] = true;
  }
  tomo::LocalizationScore score;
  score.trials = trials;
  double candidate_total = 0.0;
  std::size_t visible_trials = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto v = model.sample_exactly_k(concurrent_failures, rng);
    bool any_probe_failed = false;
    for (std::size_t q : subset) {
      if (!system.path_survives(q, v)) {
        any_probe_failed = true;
        break;
      }
    }
    if (!any_probe_failed) {
      ++score.invisible;
      continue;
    }
    ++visible_trials;
    const std::vector<graph::EdgeId> candidates =
        reference_candidates(system, subset, v);
    candidate_total += static_cast<double>(candidates.size());
    std::size_t visible_culprits = 0;
    bool all_found = true;
    for (std::size_t l = 0; l < v.size(); ++l) {
      if (!v[l] || !probed[l]) continue;
      ++visible_culprits;
      all_found = all_found && std::binary_search(
                                   candidates.begin(), candidates.end(),
                                   static_cast<graph::EdgeId>(l));
    }
    if (!all_found) {
      ++score.misled;
    } else if (candidates.size() == visible_culprits) {
      ++score.exact;
    } else {
      ++score.ambiguous;
    }
  }
  score.mean_candidates =
      visible_trials == 0
          ? 0.0
          : candidate_total / static_cast<double>(visible_trials);
  return score;
}

TEST(Localization, IndexedScoringMatchesThePerTrialLoop) {
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 19, 5.0);
  for (const auto& subset : reference_subsets(*w.system)) {
    for (const std::size_t k : {1, 2, 3}) {
      Rng got_rng(40 + k);
      Rng want_rng(40 + k);
      const auto got = tomo::score_localization(*w.system, subset,
                                                *w.failures, 200, got_rng, k);
      const auto want =
          reference_score(*w.system, subset, *w.failures, 200, want_rng, k);
      const std::string where = std::to_string(subset.size()) +
                                " probes, " + std::to_string(k) + " failures";
      EXPECT_EQ(got.trials, want.trials) << where;
      EXPECT_EQ(got.exact, want.exact) << where;
      EXPECT_EQ(got.ambiguous, want.ambiguous) << where;
      EXPECT_EQ(got.misled, want.misled) << where;
      EXPECT_EQ(got.invisible, want.invisible) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_candidates),
                std::bit_cast<std::uint64_t>(want.mean_candidates))
          << where;
      EXPECT_EQ(got_rng.next_word(), want_rng.next_word()) << where;
    }
  }
}

TEST(Localization, RobustSelectionLocalizesBetterThanTinyOne) {
  // Probing everything localizes at least as well as probing one path.
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 21, 5.0);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng1(22), rng2(22);
  const auto full =
      tomo::score_localization(*w.system, all, *w.failures, 150, rng1);
  const auto tiny =
      tomo::score_localization(*w.system, {0}, *w.failures, 150, rng2);
  EXPECT_GE(full.exact, tiny.exact);
  EXPECT_LE(full.invisible, tiny.invisible);
}

// --------------------------------------------------------------------------
// Combined-monitor pair paths
// --------------------------------------------------------------------------

TEST(PairPaths, AllUnorderedPairsOnce) {
  Rng rng(23);
  const graph::Graph g = graph::connected_erdos_renyi(20, 40, rng);
  const std::vector<graph::NodeId> monitors = {1, 4, 7, 11};
  const auto paths = tomo::generate_pair_paths(g, monitors);
  EXPECT_EQ(paths.size(), 6u);  // C(4,2)
  std::set<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (const auto& p : paths) {
    const auto a = std::min(p.source, p.destination);
    const auto b = std::max(p.source, p.destination);
    EXPECT_TRUE(pairs.insert({a, b}).second) << "duplicate pair";
    // Shortest-path weight agrees with direct routing.
    const auto direct = graph::shortest_path(g, p.source, p.destination);
    ASSERT_TRUE(direct.has_value());
    EXPECT_NEAR(p.routing_weight, direct->weight, 1e-9);
  }
}

TEST(PairPaths, SkipsDuplicateMonitors) {
  Rng rng(24);
  const graph::Graph g = graph::connected_erdos_renyi(10, 20, rng);
  const auto paths = tomo::generate_pair_paths(g, {2, 2, 5});
  // Pairs: (2,2) skipped, (2,5) twice? No: (m[0],m[1]) skipped as equal,
  // (m[0],m[2]) and (m[1],m[2]) both valid -> 2 paths between 2 and 5.
  EXPECT_EQ(paths.size(), 2u);
}

// --------------------------------------------------------------------------
// Waxman generator
// --------------------------------------------------------------------------

TEST(Waxman, ValidatesParameters) {
  Rng rng(25);
  EXPECT_THROW(graph::waxman(10, 0.0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(graph::waxman(10, 0.5, 1.5, rng), std::invalid_argument);
  EXPECT_NO_THROW(graph::waxman(10, 0.5, 0.5, rng));
}

TEST(Waxman, AlphaOneBetaOneIsDense) {
  // alpha=1, beta=1: edge probability >= e^-1 ~ 0.37 for every pair.
  Rng rng(26);
  const graph::Graph g = graph::waxman(30, 1.0, 1.0, rng);
  const double pairs = 30.0 * 29.0 / 2.0;
  EXPECT_GT(static_cast<double>(g.edge_count()), 0.25 * pairs);
}

TEST(Waxman, DistanceDecayFavorsShortEdges) {
  // With small beta, long edges are rare: the graph is much sparser than
  // alpha alone would suggest.
  Rng rng(27);
  const graph::Graph sparse = graph::waxman(40, 1.0, 0.05, rng);
  Rng rng2(27);
  const graph::Graph dense = graph::waxman(40, 1.0, 1.0, rng2);
  EXPECT_LT(sparse.edge_count(), dense.edge_count());
}

TEST(Waxman, ComposesWithMakeConnected) {
  Rng rng(28);
  graph::Graph g = graph::waxman(25, 0.4, 0.15, rng);
  graph::make_connected(g, rng);
  EXPECT_TRUE(g.is_connected());
}

}  // namespace
}  // namespace rnt
