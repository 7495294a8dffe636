// Boolean network tomography subsystem (src/boolnt): hand-checked maximal
// identifiability on the paper's Fig. 1 topology and on line/star/complete
// graphs (vertex-connectivity corner cases), multi-failure localization
// semantics including the k=0/1 degeneracies and the candidate cap,
// bitwise determinism of the identifiability report across thread counts,
// and the trial scorer against per-trial localization on overlapping
// components.
#include <gtest/gtest.h>

#include <algorithm>

#include "boolnt/hypothesis.h"
#include "boolnt/identifiability.h"
#include "boolnt/localize.h"
#include "exp/workload.h"
#include "failures/node_failure.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "testkit/instance.h"
#include "testkit/oracles.h"
#include "tomo/localization.h"
#include "tomo/path_system.h"
#include "util/rng.h"

namespace rnt {
namespace {

using Candidates = std::vector<std::vector<std::uint32_t>>;

tomo::ProbePath probe(graph::NodeId s, graph::NodeId d,
                      std::vector<graph::EdgeId> links) {
  tomo::ProbePath p;
  p.source = s;
  p.destination = d;
  std::sort(links.begin(), links.end());
  p.hops = links.size();
  p.routing_weight = static_cast<double>(links.size());
  p.links = std::move(links);
  return p;
}

std::vector<std::size_t> all_paths(const tomo::PathSystem& system) {
  std::vector<std::size_t> subset(system.path_count());
  for (std::size_t i = 0; i < subset.size(); ++i) subset[i] = i;
  return subset;
}

// --------------------------------------------------------------------------
// Paper Fig. 1 topology (same reconstruction as test_paper_example.cpp):
// monitors m1..m6 = 0..5, hubs c1 = 6 / c2 = 7, links l1..l8 = edges
// (m1-c1),(m2-c1),(m3-c1),(m4-c2),(m5-c2),(m6-c2),(c1-c2),(m3-c2).
// --------------------------------------------------------------------------

constexpr graph::NodeId kM1 = 0, kM2 = 1, kM3 = 2, kM4 = 3, kM5 = 4, kM6 = 5;
constexpr graph::NodeId kC1 = 6, kC2 = 7;
constexpr graph::EdgeId kL7 = 6;

graph::Graph example_graph() {
  graph::Graph g(8);
  g.add_edge(kM1, kC1);  // l1
  g.add_edge(kM2, kC1);  // l2
  g.add_edge(kM3, kC1);  // l3
  g.add_edge(kM4, kC2);  // l4
  g.add_edge(kM5, kC2);  // l5
  g.add_edge(kM6, kC2);  // l6
  g.add_edge(kC1, kC2);  // l7
  g.add_edge(kM3, kC2);  // l8
  return g;
}

tomo::PathSystem example_system() {
  const graph::Graph g = example_graph();
  std::vector<tomo::ProbePath> paths;
  for (graph::NodeId a = kM1; a <= kM6; ++a) {
    for (graph::NodeId b = a + 1; b <= kM6; ++b) {
      const auto routed = graph::shortest_path(g, a, b);
      paths.push_back(tomo::make_probe_path(*routed));
    }
  }
  return tomo::PathSystem(g.edge_count(), std::move(paths));
}

TEST(PaperExample, EverySingleLinkIsIdentifiableFromAllPaths) {
  const tomo::PathSystem system = example_system();
  const auto space = boolnt::HypothesisSpace::links_of(system.link_count());
  const auto report = boolnt::identifiability_report(
      system, all_paths(system), space, 1);
  // Hand check: all 8 links lie on probed paths and no two links are
  // crossed by the same path set, so single failures are fully
  // identifiable — Ma–He level 1 at cap 1, Bartolini level 1 everywhere.
  EXPECT_EQ(report.k_cap, 1u);
  EXPECT_EQ(report.max_identifiable, 1u);
  for (const std::size_t level : report.per_component) {
    EXPECT_EQ(level, 1u);
  }
  EXPECT_EQ(report.sets_examined, 9u);  // The empty set plus 8 singletons.
}

TEST(PaperExample, FailedInterHubLinkLocalizesUniquely) {
  // The Section II narrative: "from the failure of path q11, the failed
  // link is l7".  With every pair probed, l7's failure pattern is unique.
  const tomo::PathSystem system = example_system();
  const auto space = boolnt::HypothesisSpace::links_of(system.link_count());
  failures::FailureVector v(system.link_count(), false);
  v[kL7] = true;
  const auto result = boolnt::localize_multi_failure(
      system, all_paths(system), v, space, 2);
  EXPECT_FALSE(result.no_failure);
  EXPECT_FALSE(result.truncated);
  ASSERT_EQ(result.candidates, Candidates{{kL7}});
}

TEST(PaperExample, HubFailureLocalizesUniquelyInNodeSpace) {
  const graph::Graph g = example_graph();
  const tomo::PathSystem system = example_system();
  const auto space = boolnt::HypothesisSpace::nodes_of(g);
  // Hub c2 downs l4,l5,l6,l7,l8; the surviving m1/m2/m3 star exonerates
  // m1,m2,m3 and c1, and only c2 hits every failed probe alone.
  const failures::FailureVector v = space.failure_vector({kC2});
  const auto result = boolnt::localize_multi_failure(
      system, all_paths(system), v, space, 1);
  ASSERT_EQ(result.candidates, Candidates{{kC2}});
}

// --------------------------------------------------------------------------
// Line graph: one probe over links in series — nothing distinguishes them.
// --------------------------------------------------------------------------

TEST(LineGraph, SeriesLinksAreNeverIdentifiable) {
  // 0 --l0-- 1 --l1-- 2 --l2-- 3, single end-to-end probe.
  tomo::PathSystem system(3, {probe(0, 3, {0, 1, 2})});
  const auto space = boolnt::HypothesisSpace::links_of(3);
  const auto report = boolnt::identifiability_report(
      system, all_paths(system), space, 2);
  // Any failing link produces the same one-bit signature: Ma–He 0, and no
  // link is even 1-identifiable.
  EXPECT_EQ(report.max_identifiable, 0u);
  for (const std::size_t level : report.per_component) {
    EXPECT_EQ(level, 0u);
  }
  // Localization accordingly returns all three singletons.
  failures::FailureVector v(3, false);
  v[1] = true;
  const auto result = boolnt::localize_multi_failure(
      system, all_paths(system), v, space, 1);
  EXPECT_EQ(result.candidates, (Candidates{{0}, {1}, {2}}));
}

// --------------------------------------------------------------------------
// Star graph: leaves 0..3 via link i to center 4, all leaf pairs probed.
// --------------------------------------------------------------------------

graph::Graph star_graph() {
  graph::Graph g(5);
  for (graph::NodeId leaf = 0; leaf < 4; ++leaf) {
    g.add_edge(leaf, 4);  // Link id == leaf id.
  }
  return g;
}

tomo::PathSystem star_system() {
  std::vector<tomo::ProbePath> paths;
  for (graph::NodeId a = 0; a < 4; ++a) {
    for (graph::NodeId b = a + 1; b < 4; ++b) {
      paths.push_back(probe(a, b, {a, b}));
    }
  }
  return tomo::PathSystem(4, std::move(paths));
}

TEST(StarGraph, LinkPairsAreIdentifiableTriplesAreNot) {
  const tomo::PathSystem system = star_system();
  const auto space = boolnt::HypothesisSpace::links_of(4);
  // Hand check at cap 2: singleton i fails exactly the three paths
  // through leaf i; pair {i,j} leaves exactly the opposite pair's path
  // alive — all signatures distinct, so Ma–He 2.
  const auto pairs = boolnt::identifiability_report(
      system, all_paths(system), space, 2);
  EXPECT_EQ(pairs.max_identifiable, 2u);
  // At cap 3 every triple kills all six probes, so triples collide with
  // each other and Ma–He stays 2.
  const auto triples = boolnt::identifiability_report(
      system, all_paths(system), space, 3);
  EXPECT_EQ(triples.k_cap, 3u);
  EXPECT_EQ(triples.max_identifiable, 2u);
}

TEST(StarGraph, CenterCutVertexDominatesNodeIdentifiability) {
  const graph::Graph g = star_graph();
  const tomo::PathSystem system = star_system();
  const auto space = boolnt::HypothesisSpace::nodes_of(g);  // 4 leaves + c.
  const auto report = boolnt::identifiability_report(
      system, all_paths(system), space, 2);
  // Hand check: {center} kills all probes, and so does {center, leaf} —
  // a size-1/size-2 collision, so Ma–He is 1.  The colliding pair
  // disagrees only about leaves, so each leaf is stuck at level 1 while
  // the center (every <=2-set without it leaves a probe alive) keeps
  // level 2.  Galesi-style: the cut vertex is the *easy* component and
  // its neighbors pay for it.
  EXPECT_EQ(report.k_cap, 2u);
  EXPECT_EQ(report.max_identifiable, 1u);
  for (graph::NodeId leaf = 0; leaf < 4; ++leaf) {
    EXPECT_EQ(report.per_component[leaf], 1u) << "leaf " << leaf;
  }
  EXPECT_EQ(report.per_component[4], 2u);  // The center.
}

// --------------------------------------------------------------------------
// Complete graph K4, one direct probe per node pair.
// --------------------------------------------------------------------------

graph::Graph complete_graph() {
  graph::Graph g(4);
  for (graph::NodeId a = 0; a < 4; ++a) {
    for (graph::NodeId b = a + 1; b < 4; ++b) {
      g.add_edge(a, b);
    }
  }
  return g;
}

tomo::PathSystem complete_system() {
  const graph::Graph g = complete_graph();
  std::vector<tomo::ProbePath> paths;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    paths.push_back(probe(g.edge(e).u, g.edge(e).v, {e}));
  }
  return tomo::PathSystem(g.edge_count(), std::move(paths));
}

TEST(CompleteGraph, SingleLinkProbesIdentifyEverything) {
  const tomo::PathSystem system = complete_system();
  const auto space = boolnt::HypothesisSpace::links_of(6);
  // One probe per link: the signature IS the failure set, so every cap is
  // fully identifiable.
  const auto report = boolnt::identifiability_report(
      system, all_paths(system), space, 3);
  EXPECT_EQ(report.max_identifiable, 3u);
  for (const std::size_t level : report.per_component) {
    EXPECT_EQ(level, 3u);
  }
}

TEST(CompleteGraph, NodeTriplesBlackOutTheGraph) {
  const graph::Graph g = complete_graph();
  const tomo::PathSystem system = complete_system();
  const auto space = boolnt::HypothesisSpace::nodes_of(g);
  // Hand check: singletons fail 3 probes, pairs fail 5 (the opposite
  // pair's probe survives) — all distinct.  Any node triple fails all 6
  // probes, so triples collide: Ma–He = 2 = vertex connectivity - 1.
  const auto report = boolnt::identifiability_report(
      system, all_paths(system), space, 3);
  EXPECT_EQ(report.k_cap, 3u);
  EXPECT_EQ(report.max_identifiable, 2u);
}

// --------------------------------------------------------------------------
// Degeneracies and equivalences.
// --------------------------------------------------------------------------

TEST(Localize, NoFailureYieldsTheEmptyHypothesis) {
  const tomo::PathSystem system = star_system();
  const auto space = boolnt::HypothesisSpace::links_of(4);
  const failures::FailureVector v(4, false);
  const auto result = boolnt::localize_multi_failure(
      system, all_paths(system), v, space, 2);
  EXPECT_TRUE(result.no_failure);
  EXPECT_EQ(result.candidates, Candidates{{}});
}

TEST(Localize, ZeroFailureCapExplainsNothing) {
  const tomo::PathSystem system = star_system();
  const auto space = boolnt::HypothesisSpace::links_of(4);
  failures::FailureVector v(4, false);
  v[0] = true;
  const auto result = boolnt::localize_multi_failure(
      system, all_paths(system), v, space, 0);
  EXPECT_FALSE(result.no_failure);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(Localize, KEqualsOneMatchesSingleLinkLocalization) {
  const tomo::PathSystem system = example_system();
  const auto space = boolnt::HypothesisSpace::links_of(system.link_count());
  const auto subset = all_paths(system);
  for (std::size_t l = 0; l < system.link_count(); ++l) {
    failures::FailureVector v(system.link_count(), false);
    v[l] = true;
    const auto single = tomo::localize_single_failure(system, subset, v);
    const auto multi =
        boolnt::localize_multi_failure(system, subset, v, space, 1);
    Candidates expected;
    for (const graph::EdgeId c : single.candidates) expected.push_back({c});
    EXPECT_EQ(multi.candidates, expected) << "link " << l;
  }
}

/// True iff `candidate` failing would fail exactly the probes v fails.
bool consistent(const tomo::PathSystem& system,
                const std::vector<std::size_t>& subset,
                const failures::FailureVector& v,
                const boolnt::HypothesisSpace& space,
                const std::vector<std::uint32_t>& candidate) {
  const failures::FailureVector predicted = space.failure_vector(candidate);
  for (const std::size_t q : subset) {
    if (system.path_survives(q, v) != system.path_survives(q, predicted)) {
      return false;
    }
  }
  return true;
}

TEST(Localize, TruncatedCandidatesAreConsistentButNotAPrefix) {
  // Probes {l0,l2} and {l1,l2} both fail when l2 does.  Branching on the
  // first probe reaches {0,1} and {0,2} before {2}, so a cap of two stops
  // the search holding {0,2}, which the full answer replaces by {2}.
  const tomo::PathSystem system(3, {probe(0, 1, {0, 2}), probe(2, 3, {1, 2})});
  const auto space = boolnt::HypothesisSpace::links_of(3);
  const auto subset = all_paths(system);
  failures::FailureVector v(3, false);
  v[2] = true;
  const auto full =
      boolnt::localize_multi_failure(system, subset, v, space, 2);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.candidates, (Candidates{{0, 1}, {2}}));
  const auto capped =
      boolnt::localize_multi_failure(system, subset, v, space, 2, 2);
  EXPECT_TRUE(capped.truncated);
  EXPECT_EQ(capped.candidates, (Candidates{{0, 1}, {0, 2}}));
  for (const auto& candidate : capped.candidates) {
    EXPECT_TRUE(consistent(system, subset, v, space, candidate));
  }
}

// --------------------------------------------------------------------------
// Overlapping components: SRLG-style shared links, one component off every
// probe and one only partly probed.
// --------------------------------------------------------------------------

testkit::TestInstance srlg_instance() {
  return testkit::make_instance(
      {{0, 1}, {1, 2, 3}, {3, 4}, {4, 5}, {0, 5}, {2, 4}},
      std::vector<double>(8, 0.1), std::vector<double>(6, 1.0), 1);
}

std::vector<std::vector<std::uint32_t>> srlg_component_links() {
  // c6 = {6,7} touches no probe; c7 = {2,6} is seen only through link 2.
  return {{0, 1}, {1, 3}, {2}, {3, 4}, {5}, {4, 5}, {6, 7}, {2, 6}};
}

boolnt::HypothesisSpace srlg_space() {
  std::vector<boolnt::Component> components;
  for (const auto& links : srlg_component_links()) {
    components.push_back({"c" + std::to_string(components.size()), links});
  }
  return boolnt::HypothesisSpace(8, std::move(components));
}

void expect_same_score(const boolnt::MultiLocalizationScore& a,
                       const boolnt::MultiLocalizationScore& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.ambiguous, b.ambiguous);
  EXPECT_EQ(a.misled, b.misled);
  EXPECT_EQ(a.invisible, b.invisible);
  EXPECT_EQ(a.mean_candidates, b.mean_candidates);
}

TEST(Score, IndexedScorerMatchesPerTrialLocalizationOnOverlappingComponents) {
  const testkit::TestInstance inst = srlg_instance();
  const auto space = srlg_space();
  const auto component_links = srlg_component_links();
  const std::vector<std::vector<std::size_t>> subsets = {
      {0, 1, 2, 3, 4, 5}, {0, 2, 5}, {1, 3}};
  const std::vector<std::vector<double>> weightings = {
      {}, {0.5, 1.0, 2.0, 0.25, 1.5, 0.75, 3.0, 1.0}};
  for (const auto& subset : subsets) {
    for (const auto& weights : weightings) {
      for (const std::size_t k : {1u, 2u, 3u}) {
        Rng scored(17);
        const auto score = boolnt::score_multi_localization(
            inst.system, subset, space, k, 150, scored, weights);
        EXPECT_EQ(score.exact + score.ambiguous + score.misled +
                      score.invisible,
                  score.trials);
        EXPECT_GT(score.invisible, 0u);  // c6 alone is never seen.
        Rng per_trial(17);
        expect_same_score(
            score, testkit::replay_multi_localization_score(
                       inst, subset, component_links, k, 150, per_trial,
                       weights, [&](const std::vector<bool>& observed) {
                         return boolnt::localize_multi_failure(
                                    inst.system, subset, observed, space, k)
                             .candidates;
                       }));
        Rng oracle(17);
        expect_same_score(
            score, testkit::replay_multi_localization_score(
                       inst, subset, component_links, k, 150, oracle,
                       weights, [&](const std::vector<bool>& observed) {
                         return testkit::oracle_multi_localization(
                             inst, subset, component_links, observed, k);
                       }));
      }
    }
  }
}

TEST(Identifiability, ZeroCapDegenerates) {
  const tomo::PathSystem system = star_system();
  const auto space = boolnt::HypothesisSpace::links_of(4);
  const auto report = boolnt::identifiability_report(
      system, all_paths(system), space, 0);
  EXPECT_EQ(report.k_cap, 0u);
  EXPECT_EQ(report.max_identifiable, 0u);
  for (const std::size_t level : report.per_component) {
    EXPECT_EQ(level, 0u);
  }
}

TEST(Identifiability, ReportIsBitwiseIdenticalAcrossThreadCounts) {
  // Large enough that the threaded signing path actually engages
  // (>= 256 sets): a 20-link workload at cap 3 signs 1351 sets.
  const exp::Workload w = exp::make_custom_workload(14, 20, 40, 7);
  const auto links = boolnt::HypothesisSpace::links_of(w.system->link_count());
  const auto nodes = boolnt::HypothesisSpace::nodes_of(w.graph);
  std::vector<std::size_t> subset(w.system->path_count());
  for (std::size_t i = 0; i < subset.size(); ++i) subset[i] = i;
  for (const boolnt::HypothesisSpace* space : {&links, &nodes}) {
    const auto t1 =
        boolnt::identifiability_report(*w.system, subset, *space, 3, 1);
    const auto t4 =
        boolnt::identifiability_report(*w.system, subset, *space, 3, 4);
    EXPECT_EQ(t1.k_cap, t4.k_cap);
    EXPECT_EQ(t1.max_identifiable, t4.max_identifiable);
    EXPECT_EQ(t1.per_component, t4.per_component);
    EXPECT_EQ(t1.sets_examined, t4.sets_examined);
  }
}

TEST(Score, MultiLocalizationCountsArePartitionAndDeterministic) {
  const exp::Workload w = exp::make_custom_workload(10, 14, 24, 3);
  const auto space = boolnt::HypothesisSpace::nodes_of(w.graph);
  std::vector<std::size_t> subset(w.system->path_count());
  for (std::size_t i = 0; i < subset.size(); ++i) subset[i] = i;
  Rng rng_a(99);
  const auto a = boolnt::score_multi_localization(*w.system, subset, space,
                                                  2, 120, rng_a);
  EXPECT_EQ(a.trials, 120u);
  EXPECT_EQ(a.exact + a.ambiguous + a.misled + a.invisible, a.trials);
  Rng rng_b(99);
  const auto b = boolnt::score_multi_localization(*w.system, subset, space,
                                                  2, 120, rng_b);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.ambiguous, b.ambiguous);
  EXPECT_EQ(a.misled, b.misled);
  EXPECT_EQ(a.invisible, b.invisible);
  EXPECT_EQ(a.mean_candidates, b.mean_candidates);
}

TEST(NodeFamily, StarMarginalsMatchClosedForm) {
  const graph::Graph g = star_graph();
  const auto model = failures::NodeFailureModel::from_graph(
      g, failures::uniform_model(g.edge_count(), 0.0),
      {0.1, 0.2, 0.3, 0.4, 0.5});
  const failures::FailureModel marginal = model.marginal_model();
  // Link i joins leaf i (probability p_i) to the center (0.5):
  // P(fail) = 1 - (1 - p_i) * (1 - 0.5).
  const double leaf_probs[] = {0.1, 0.2, 0.3, 0.4};
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_NEAR(marginal.probability(l),
                1.0 - (1.0 - leaf_probs[l]) * 0.5, 1e-12)
        << "link " << l;
  }
}

}  // namespace
}  // namespace rnt
