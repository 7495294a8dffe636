// Tests for the tomography layer: path matrix construction, survivor
// queries, monitor placement / candidate path generation, the paper's
// probing cost model, link identifiability and coverage, and the
// per-request class row spaces forked from one sparse basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/expected_rank.h"
#include "core/rome.h"
#include "exp/workload.h"
#include "failures/failure_model.h"
#include "graph/generators.h"
#include "graph/isp_topology.h"
#include "tomo/cost_model.h"
#include "tomo/identifiability.h"
#include "tomo/monitors.h"
#include "testkit/dense_reference.h"
#include "testkit/oracles.h"
#include "tomo/path_system.h"
#include "tomo/row_classes.h"
#include "util/rng.h"

namespace rnt::tomo {
namespace {

/// A 4-node line: 0 -1- 2 -3 with links l0=(0,1), l1=(1,2), l2=(2,3).
PathSystem line_system() {
  std::vector<ProbePath> paths;
  ProbePath p01;
  p01.source = 0;
  p01.destination = 1;
  p01.links = {0};
  p01.hops = 1;
  ProbePath p02;
  p02.source = 0;
  p02.destination = 2;
  p02.links = {0, 1};
  p02.hops = 2;
  ProbePath p03;
  p03.source = 0;
  p03.destination = 3;
  p03.links = {0, 1, 2};
  p03.hops = 3;
  paths = {p01, p02, p03};
  return PathSystem(3, paths);
}

// --------------------------------------------------------------------------
// PathSystem
// --------------------------------------------------------------------------

TEST(PathSystem, MatrixReflectsLinks) {
  const PathSystem sys = line_system();
  EXPECT_EQ(sys.path_count(), 3u);
  EXPECT_EQ(sys.link_count(), 3u);
  const auto& a = sys.matrix();
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 1.0);
}

TEST(PathSystem, RejectsInvalidPaths) {
  ProbePath empty;
  empty.links = {};
  EXPECT_THROW(PathSystem(3, {empty}), std::invalid_argument);
  ProbePath bad;
  bad.links = {7};
  EXPECT_THROW(PathSystem(3, {bad}), std::out_of_range);
}

TEST(PathSystem, SurvivorsUnderFailures) {
  const PathSystem sys = line_system();
  const failures::FailureVector v = {false, true, false};  // l1 fails
  EXPECT_TRUE(sys.path_survives(0, v));
  EXPECT_FALSE(sys.path_survives(1, v));
  EXPECT_FALSE(sys.path_survives(2, v));
  const auto survivors = sys.surviving_rows({0, 1, 2}, v);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0], 0u);
  EXPECT_EQ(sys.surviving_rank({0, 1, 2}, v), 1u);
}

TEST(PathSystem, FailureVectorSizeMismatchThrows) {
  const PathSystem sys = line_system();
  EXPECT_THROW(sys.path_survives(0, failures::FailureVector{true}),
               std::invalid_argument);
}

TEST(PathSystem, RankQueries) {
  const PathSystem sys = line_system();
  EXPECT_EQ(sys.full_rank(), 3u);
  EXPECT_EQ(sys.rank_of({0, 1}), 2u);
  EXPECT_EQ(sys.rank_of({}), 0u);
  // full_rank is cached; second call must agree.
  EXPECT_EQ(sys.full_rank(), 3u);
}

TEST(PathSystem, ExpectedAvailability) {
  const PathSystem sys = line_system();
  const failures::FailureModel model({0.1, 0.2, 0.5});
  EXPECT_NEAR(sys.expected_availability(0, model), 0.9, 1e-12);
  EXPECT_NEAR(sys.expected_availability(2, model), 0.9 * 0.8 * 0.5, 1e-12);
}

TEST(PathSystem, MakeProbePathSortsLinks) {
  graph::Path routed;
  routed.nodes = {3, 2, 1};
  routed.edges = {5, 2};
  routed.weight = 4.0;
  const ProbePath p = make_probe_path(routed);
  EXPECT_EQ(p.source, 3u);
  EXPECT_EQ(p.destination, 1u);
  EXPECT_EQ(p.hops, 2u);
  EXPECT_EQ(p.links, (std::vector<graph::EdgeId>{2, 5}));
  graph::Path empty;
  EXPECT_THROW(make_probe_path(empty), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Monitors and candidate paths
// --------------------------------------------------------------------------

TEST(Monitors, PickDisjointSourcesAndDestinations) {
  Rng rng(1);
  graph::Graph g = graph::connected_erdos_renyi(30, 60, rng);
  const MonitorSet m = pick_monitors(g, 5, 7, rng);
  EXPECT_EQ(m.sources.size(), 5u);
  EXPECT_EQ(m.destinations.size(), 7u);
  const auto monitors = m.all();
  std::set<graph::NodeId> all(monitors.begin(), monitors.end());
  EXPECT_EQ(all.size(), 12u);  // Disjoint.
  EXPECT_THROW(pick_monitors(g, 20, 20, rng), std::invalid_argument);
}

TEST(Monitors, CandidatePathsAreShortestPaths) {
  Rng rng(2);
  graph::Graph g =
      graph::connected_erdos_renyi(25, 50, rng, graph::WeightModel::kUniformReal);
  const MonitorSet m = pick_monitors(g, 4, 4, rng);
  const auto paths = generate_candidate_paths(g, m);
  EXPECT_EQ(paths.size(), 16u);  // Connected graph: all pairs routed.
  for (const ProbePath& p : paths) {
    const auto direct = graph::shortest_path(g, p.source, p.destination);
    ASSERT_TRUE(direct.has_value());
    EXPECT_NEAR(p.routing_weight, direct->weight, 1e-9);
    EXPECT_EQ(p.hops, direct->edges.size());
  }
}

TEST(Monitors, BuildPathSystemHitsTarget) {
  Rng rng(3);
  graph::Graph g = graph::build_isp_like(60, 120, rng);
  MonitorSet monitors;
  const PathSystem sys = build_path_system(g, 50, rng, &monitors);
  EXPECT_EQ(sys.path_count(), 50u);
  EXPECT_EQ(sys.link_count(), g.edge_count());
  EXPECT_FALSE(monitors.sources.empty());
}

TEST(Monitors, BuildPathSystemSmallGraphBestEffort) {
  Rng rng(4);
  graph::Graph g = graph::build_isp_like(10, 14, rng);
  // Request far more paths than 5x5 monitor pairs can provide.
  const PathSystem sys = build_path_system(g, 500, rng);
  EXPECT_GT(sys.path_count(), 0u);
  EXPECT_LE(sys.path_count(), 25u);
  EXPECT_THROW(build_path_system(g, 0, rng), std::invalid_argument);
}

TEST(Monitors, DeterministicGivenSeed) {
  Rng rng1(5);
  Rng rng2(5);
  graph::Graph g1 = graph::build_isp_like(40, 80, rng1);
  graph::Graph g2 = graph::build_isp_like(40, 80, rng2);
  const PathSystem s1 = build_path_system(g1, 30, rng1);
  const PathSystem s2 = build_path_system(g2, 30, rng2);
  ASSERT_EQ(s1.path_count(), s2.path_count());
  for (std::size_t i = 0; i < s1.path_count(); ++i) {
    EXPECT_EQ(s1.path(i), s2.path(i));
  }
}

// --------------------------------------------------------------------------
// Cost model
// --------------------------------------------------------------------------

TEST(CostModel, UnitCosts) {
  const CostModel unit = CostModel::unit();
  EXPECT_TRUE(unit.is_unit());
  ProbePath p;
  p.hops = 7;
  p.links = {0};
  EXPECT_DOUBLE_EQ(unit.path_cost(p), 1.0);
}

TEST(CostModel, HopAndAccessComponents) {
  CostModel cm(100.0, {{0, 300.0}, {9, 0.0}});
  ProbePath p;
  p.source = 0;
  p.destination = 9;
  p.hops = 3;
  // 3 hops * 100 + 300 (peer-owned src) + 0 (self-owned dst).
  EXPECT_DOUBLE_EQ(cm.path_cost(p), 600.0);
  // Unknown monitors contribute no access cost.
  p.source = 5;
  p.destination = 6;
  EXPECT_DOUBLE_EQ(cm.path_cost(p), 300.0);
}

TEST(CostModel, RejectsNegativeCosts) {
  EXPECT_THROW(CostModel(-1.0, {}), std::invalid_argument);
  EXPECT_THROW(CostModel(1.0, {{0, -5.0}}), std::invalid_argument);
}

TEST(CostModel, PaperModelDrawsFromTwoClasses) {
  Rng rng(6);
  MonitorSet m;
  for (graph::NodeId n = 0; n < 40; ++n) {
    (n < 20 ? m.sources : m.destinations).push_back(n);
  }
  const CostModel cm = CostModel::paper_model(m, rng);
  std::set<double> access_values;
  for (graph::NodeId n = 0; n < 40; ++n) {
    ProbePath p;
    p.source = n;
    p.destination = n;  // Same monitor twice isolates 2x access cost.
    p.hops = 0;
    access_values.insert(cm.path_cost(p) / 2.0);
  }
  // Both classes {0, 300} should appear across 40 monitors.
  EXPECT_TRUE(access_values.count(0.0) == 1);
  EXPECT_TRUE(access_values.count(300.0) == 1);
  EXPECT_EQ(access_values.size(), 2u);
}

TEST(CostModel, SubsetCostIsAdditive) {
  const PathSystem sys = line_system();
  CostModel cm(10.0, {});
  EXPECT_DOUBLE_EQ(cm.subset_cost(sys, {0, 2}), 10.0 + 30.0);
  const auto costs = cm.path_costs(sys);
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_DOUBLE_EQ(costs[1], 20.0);
}

// --------------------------------------------------------------------------
// Identifiability
// --------------------------------------------------------------------------

TEST(Identifiability, LineSystemFullyIdentifiable) {
  const PathSystem sys = line_system();
  // Paths (l0), (l0,l1), (l0,l1,l2) identify all three links by telescoping.
  const auto ids = identifiable_links(sys, {0, 1, 2});
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(identifiable_count(sys, {0, 1, 2}), 3u);
}

TEST(Identifiability, PartialSubset) {
  const PathSystem sys = line_system();
  // Only the 2-hop path: covers l0,l1 but cannot separate them.
  EXPECT_EQ(identifiable_count(sys, {1}), 0u);
  // Paths 0 and 1: l0 directly, l1 = p1 - p0.
  const auto ids = identifiable_links(sys, {0, 1});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[1], 1u);
}

TEST(Identifiability, EmptySubset) {
  const PathSystem sys = line_system();
  EXPECT_TRUE(identifiable_links(sys, {}).empty());
}

TEST(Identifiability, UnderFailures) {
  const PathSystem sys = line_system();
  const failures::FailureVector v = {false, false, true};  // l2 fails
  // Path 2 is gone; paths 0,1 identify l0 and l1.
  EXPECT_EQ(identifiable_count_under(sys, {0, 1, 2}, v), 2u);
  const failures::FailureVector v0 = {true, false, false};  // l0 fails
  // All paths traverse l0, so nothing survives.
  EXPECT_EQ(identifiable_count_under(sys, {0, 1, 2}, v0), 0u);
}

TEST(Identifiability, IdentifiabilityNeverExceedsRank) {
  Rng rng(7);
  graph::Graph g = graph::build_isp_like(40, 80, rng);
  const PathSystem sys = build_path_system(g, 60, rng);
  auto model = failures::markopoulou_model(g.edge_count(), rng, 5.0);
  std::vector<std::size_t> all(sys.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (int trial = 0; trial < 10; ++trial) {
    const auto v = model.sample(rng);
    const auto survivors = sys.surviving_rows(all, v);
    EXPECT_LE(identifiable_links(sys, survivors).size(),
              sys.rank_of(survivors));
  }
}

TEST(Coverage, IdentifiabilityRequiresCoverage) {
  // Property: every identifiable link is covered.
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 3, 5.0);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  core::ProbBoundEr engine(*w.system, *w.failures);
  const auto sel = core::rome(
      *w.system, w.costs,
      0.2 * w.costs.subset_cost(*w.system, all), engine);
  const auto covered = covered_system(*w.system, sel.paths).links;
  for (std::size_t l : identifiable_links(*w.system, sel.paths)) {
    EXPECT_TRUE(std::binary_search(covered.begin(), covered.end(), l));
  }
}

TEST(Coverage, RankNeverExceedsCoveredLinks) {
  // Invariant: the rank of a selection is at most the number of covered
  // links (nonzero columns) and at most the number of selected paths.
  for (std::uint64_t seed = 4; seed < 8; ++seed) {
    const exp::Workload w = exp::make_custom_workload(40, 80, 60, seed, 5.0);
    std::vector<std::size_t> all(w.system->path_count());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const double budget = 0.1 * w.costs.subset_cost(*w.system, all);
    core::ProbBoundEr engine(*w.system, *w.failures);
    const auto sel = core::rome(*w.system, w.costs, budget, engine);
    const std::size_t rank = w.system->rank_of(sel.paths);
    EXPECT_LE(rank, covered_system(*w.system, sel.paths).links.size());
    EXPECT_LE(rank, sel.paths.size());
  }
}

// --------------------------------------------------------------------------
// class_row_spaces
// --------------------------------------------------------------------------

/// One single-link path per link 0..3 plus p4 = {l0, l1} and p5 = {l2, l3}.
PathSystem unit_system() {
  std::vector<ProbePath> paths;
  for (const std::vector<graph::EdgeId>& links :
       std::vector<std::vector<graph::EdgeId>>{
           {0}, {1}, {2}, {3}, {0, 1}, {2, 3}}) {
    ProbePath p;
    p.links = links;
    p.hops = links.size();
    paths.push_back(p);
  }
  return PathSystem(4, paths);
}

std::vector<linalg::RowSpace> spaces_of(
    const PathSystem& system,
    const std::vector<std::vector<std::size_t>>& class_rows,
    bool identifiable = true) {
  RowClasses classes;
  for (const auto& rows : class_rows) classes.intern(rows);
  return class_row_spaces(system, classes, identifiable);
}

/// Rank and identifiable links of `rows` from a dense pass of their own.
void expect_dense(const PathSystem& system,
                  const std::vector<std::size_t>& rows,
                  const linalg::RowSpace& got, const std::string& where) {
  EXPECT_EQ(got.rank, testkit::dense_rank(system, rows)) << where;
  EXPECT_EQ(got.identifiable, testkit::dense_identifiable(system, rows))
      << where;
}

TEST(ClassRowSpaces, ClassesForkWhereTheirRowsLeaveTheRoot) {
  const PathSystem sys = unit_system();
  const std::vector<std::vector<std::size_t>> rows = {
      {0, 4, 1, 2, 3},  // root: rank 4, every link identifiable
      {4, 1, 2, 3},     // first row failed: forks at prefix 0
      {0, 4, 2, 3},     // forks after a dependent-free prefix of rank 2
      {0, 4, 1},        // a prefix of the root
      {0, 1, 2, 3},     // full rank without p4
      {}};              // every row failed
  const std::vector<linalg::RowSpace> spaces = spaces_of(sys, rows);
  ASSERT_EQ(spaces.size(), rows.size());
  const std::vector<std::size_t> expected_rank = {4, 4, 4, 2, 4, 0};
  for (std::size_t c = 0; c < rows.size(); ++c) {
    EXPECT_EQ(spaces[c].rank, expected_rank[c]) << "class " << c;
    expect_dense(sys, rows[c], spaces[c], "class " + std::to_string(c));
  }
  EXPECT_EQ(spaces[3].identifiable, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(spaces[5].identifiable.empty());
}

TEST(ClassRowSpaces, ForkAtPrefixZeroDropsTheFailedFirstRow) {
  const PathSystem sys = unit_system();
  // Root p0, p1, p2, p3; the class loses p0, the root's first row, so its
  // basis must hold none of the root's rows.
  const std::vector<linalg::RowSpace> spaces =
      spaces_of(sys, {{0, 1, 2, 3}, {1, 2, 3}, {0, 2, 3}});
  EXPECT_EQ(spaces[1].rank, 3u);
  EXPECT_EQ(spaces[1].identifiable, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(spaces[2].rank, 3u);
  EXPECT_EQ(spaces[2].identifiable, (std::vector<std::size_t>{0, 2, 3}));
}

TEST(ClassRowSpaces, EachClassIsPrunedByTheRootOnly) {
  const PathSystem sys = unit_system();
  // Classes 1 and 2 identify disjoint links: testing class 2 against
  // class 1's identifiable set would lose {2, 3}.
  const std::vector<std::vector<std::size_t>> rows = {
      {0, 1, 2, 3, 4, 5}, {0, 1}, {2, 3}, {1, 5}, {4, 5}};
  const std::vector<linalg::RowSpace> spaces = spaces_of(sys, rows);
  EXPECT_EQ(spaces[1].identifiable, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(spaces[2].identifiable, (std::vector<std::size_t>{2, 3}));
  for (std::size_t c = 0; c < rows.size(); ++c) {
    expect_dense(sys, rows[c], spaces[c], "class " + std::to_string(c));
  }
}

TEST(ClassRowSpaces, SubsetListingAPathTwice) {
  const PathSystem sys = unit_system();
  const std::vector<std::vector<std::size_t>> rows = {
      {4, 0, 4, 1, 2}, {4, 4, 1, 2}, {0, 1, 2}, {4, 4}};
  const std::vector<linalg::RowSpace> spaces = spaces_of(sys, rows);
  for (std::size_t c = 0; c < rows.size(); ++c) {
    expect_dense(sys, rows[c], spaces[c], "class " + std::to_string(c));
  }
  EXPECT_EQ(spaces[0].rank, 3u);
  EXPECT_EQ(spaces[3].rank, 1u);
}

TEST(ClassRowSpaces, RankOnlyLeavesIdentifiabilityEmpty) {
  const PathSystem sys = unit_system();
  const std::vector<linalg::RowSpace> spaces =
      spaces_of(sys, {{0, 1, 4}, {1, 4}}, /*identifiable=*/false);
  EXPECT_EQ(spaces[0].rank, 2u);
  EXPECT_EQ(spaces[1].rank, 2u);
  EXPECT_TRUE(spaces[0].identifiable.empty());
  EXPECT_TRUE(spaces[1].identifiable.empty());
  EXPECT_TRUE(spaces_of(sys, {}).empty());
}

TEST(ClassRowSpaces, RejectsAClassWithARowOutsideTheRoot) {
  const PathSystem sys = unit_system();
  EXPECT_THROW(spaces_of(sys, {{0, 1}, {0, 2}}), std::invalid_argument);
}

TEST(ClassRowSpaces, SampledClassesMatchDenseAndExactReferees) {
  Rng rng(23);
  graph::Graph g = graph::build_isp_like(40, 80, rng);
  const PathSystem sys = build_path_system(g, 60, rng);
  const auto model = failures::markopoulou_model(g.edge_count(), rng, 8.0);
  std::vector<std::size_t> subset(sys.path_count());
  std::iota(subset.begin(), subset.end(), std::size_t{0});
  rng.shuffle(subset);
  subset.resize(40);
  subset.push_back(subset[3]);  // a path listed twice
  RowClasses classes;
  classes.intern(subset);
  for (int s = 0; s < 60; ++s) {
    classes.intern(sys.surviving_rows(subset, model.sample(rng)));
  }
  ASSERT_GT(classes.size(), 10u);
  const std::vector<linalg::RowSpace> spaces =
      class_row_spaces(sys, classes, /*identifiable=*/true);
  const std::vector<linalg::RowSpace> ranks =
      class_row_spaces(sys, classes, /*identifiable=*/false);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const std::vector<std::size_t>& rows = classes.rows(c);
    const std::string where = "class " + std::to_string(c);
    expect_dense(sys, rows, spaces[c], where);
    EXPECT_EQ(ranks[c].rank, spaces[c].rank) << where;
    EXPECT_EQ(sys.rank_of(rows), spaces[c].rank) << where;
    std::vector<std::vector<double>> dense;
    for (const std::size_t r : rows) {
      dense.emplace_back(sys.row(r).begin(), sys.row(r).end());
    }
    EXPECT_EQ(testkit::exact_rank(dense), spaces[c].rank) << where;
    EXPECT_EQ(row_space_of(sys, rows).identifiable, spaces[c].identifiable)
        << where;
  }
}

TEST(ClassRowSpaces, ClassesForkConcurrentlyFromOneRoot) {
  Rng rng(29);
  graph::Graph g = graph::build_isp_like(40, 80, rng);
  const PathSystem sys = build_path_system(g, 60, rng);
  const auto model = failures::markopoulou_model(g.edge_count(), rng, 8.0);
  std::vector<std::size_t> subset(sys.path_count());
  std::iota(subset.begin(), subset.end(), std::size_t{0});
  RowClasses classes;
  classes.intern(subset);
  for (int s = 0; s < 60; ++s) {
    classes.intern(sys.surviving_rows(subset, model.sample(rng)));
  }
  const std::vector<linalg::RowSpace> serial =
      class_row_spaces(sys, classes, /*identifiable=*/true);
  const ClassRowSpaces root(sys, classes, /*identifiable=*/true);
  // Each thread walks every class, from its own starting class.
  constexpr std::size_t kThreads = 3;
  std::vector<std::vector<linalg::RowSpace>> got(
      kThreads, std::vector<linalg::RowSpace>(classes.size()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < classes.size(); ++i) {
        const std::size_t c = (i + t * 7) % classes.size();
        got[t][c] = root.space(c);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      EXPECT_EQ(got[t][c].rank, serial[c].rank) << "class " << c;
      EXPECT_EQ(got[t][c].identifiable, serial[c].identifiable)
          << "class " << c;
    }
  }
  EXPECT_THROW(root.space(classes.size()), std::out_of_range);
}

}  // namespace
}  // namespace rnt::tomo
