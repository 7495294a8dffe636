// Tests for the structural analysis extensions: bridge / articulation
// detection and the Gilbert-Elliott bursty failure model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "failures/gilbert_elliott.h"
#include "graph/bridges.h"
#include "graph/generators.h"
#include "graph/isp_topology.h"
#include "util/rng.h"

namespace rnt {
namespace {

// --------------------------------------------------------------------------
// Bridges and articulation points
// --------------------------------------------------------------------------

TEST(Bridges, PathGraphAllBridges) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto bridges = graph::find_bridges(g);
  EXPECT_EQ(bridges.size(), 3u);
  EXPECT_FALSE(graph::is_two_edge_connected(g));
  const auto arts = graph::find_articulation_points(g);
  EXPECT_EQ(arts, (std::vector<graph::NodeId>{1, 2}));
}

TEST(Bridges, CycleHasNone) {
  graph::Graph g(5);
  for (graph::NodeId i = 0; i < 5; ++i) {
    g.add_edge(i, static_cast<graph::NodeId>((i + 1) % 5));
  }
  EXPECT_TRUE(graph::find_bridges(g).empty());
  EXPECT_TRUE(graph::find_articulation_points(g).empty());
  EXPECT_TRUE(graph::is_two_edge_connected(g));
}

TEST(Bridges, BarbellBridgeBetweenCycles) {
  // Two triangles joined by one edge: that edge is the only bridge, its
  // endpoints are articulation points.
  graph::Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  const graph::EdgeId bridge = g.add_edge(2, 3);
  const auto bridges = graph::find_bridges(g);
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_EQ(bridges[0], bridge);
  EXPECT_TRUE(graph::is_bridge(g, bridge));
  EXPECT_FALSE(graph::is_bridge(g, 0));
  const auto arts = graph::find_articulation_points(g);
  EXPECT_EQ(arts, (std::vector<graph::NodeId>{2, 3}));
}

TEST(Bridges, StarCenterIsArticulation) {
  graph::Graph g(5);
  for (graph::NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  const auto arts = graph::find_articulation_points(g);
  EXPECT_EQ(arts, (std::vector<graph::NodeId>{0}));
  EXPECT_EQ(graph::find_bridges(g).size(), 4u);
}

TEST(Bridges, AgreesWithRemovalOracle) {
  // Property: e is a bridge iff removing it disconnects the graph (for a
  // connected base graph).  Cross-check on random connected graphs.
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Graph g = graph::connected_erdos_renyi(15, 20, rng);
    const auto bridges = graph::find_bridges(g);
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      // Rebuild without edge e.
      graph::Graph h(g.node_count());
      for (graph::EdgeId f = 0; f < g.edge_count(); ++f) {
        if (f == e) continue;
        const auto& edge = g.edge(f);
        h.add_edge(edge.u, edge.v, edge.weight);
      }
      const bool removal_disconnects = !h.is_connected();
      const bool reported =
          std::binary_search(bridges.begin(), bridges.end(), e);
      EXPECT_EQ(reported, removal_disconnects) << "edge " << e;
    }
  }
}

TEST(Bridges, DisconnectedGraphHandled) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(graph::find_bridges(g).size(), 2u);
  EXPECT_FALSE(graph::is_two_edge_connected(g));
}

TEST(Bridges, IspTopologiesHaveFewBridges) {
  // Calibrated ISP topologies are mesh-like in the core, but leaf
  // attachment edges are bridges; sanity-check the analysis runs at scale.
  Rng rng(3);
  const graph::Graph g =
      graph::build_isp_topology(graph::IspTopology::kAS3257, rng);
  const auto bridges = graph::find_bridges(g);
  EXPECT_LT(bridges.size(), g.edge_count() / 2);
}

// --------------------------------------------------------------------------
// Gilbert-Elliott bursty failures
// --------------------------------------------------------------------------

TEST(GilbertElliott, ValidatesInput) {
  EXPECT_THROW(failures::GilbertElliottModel({0.5}, 0.5, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(failures::GilbertElliottModel({1.0}, 2.0, Rng(1)),
               std::invalid_argument);
  EXPECT_NO_THROW(failures::GilbertElliottModel({0.0, 0.5}, 2.0, Rng(1)));
}

TEST(GilbertElliott, ZeroProbabilityNeverFails) {
  failures::GilbertElliottModel model({0.0, 0.0}, 3.0, Rng(2));
  for (int i = 0; i < 50; ++i) {
    const auto v = model.step();
    EXPECT_FALSE(v[0]);
    EXPECT_FALSE(v[1]);
  }
}

TEST(GilbertElliott, StationaryFrequencyMatches) {
  const double p = 0.2;
  failures::GilbertElliottModel model({p}, 4.0, Rng(3));
  int failed = 0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    if (model.step()[0]) ++failed;
  }
  EXPECT_NEAR(static_cast<double>(failed) / n, p, 0.02);
}

TEST(GilbertElliott, BurstLengthMatches) {
  const double burst = 6.0;
  failures::GilbertElliottModel model({0.3}, burst, Rng(4));
  // Measure mean run length of consecutive BAD epochs.
  int runs = 0;
  int bad_epochs = 0;
  bool prev = false;
  for (int i = 0; i < 120000; ++i) {
    const bool bad = model.step()[0];
    if (bad) {
      ++bad_epochs;
      if (!prev) ++runs;
    }
    prev = bad;
  }
  ASSERT_GT(runs, 0);
  EXPECT_NEAR(static_cast<double>(bad_epochs) / runs, burst, 0.6);
}

TEST(GilbertElliott, StationaryModelExportsMarginals) {
  failures::GilbertElliottModel model({0.1, 0.4}, 2.0, Rng(5));
  const auto stat = model.stationary_model();
  EXPECT_DOUBLE_EQ(stat.probability(0), 0.1);
  EXPECT_DOUBLE_EQ(stat.probability(1), 0.4);
  EXPECT_DOUBLE_EQ(model.mean_burst_length(), 2.0);
}

TEST(GilbertElliott, TemporalCorrelationExists) {
  // P(fail at t+1 | fail at t) must exceed the stationary probability —
  // the defining property distinguishing bursty from i.i.d. failures.
  failures::GilbertElliottModel model({0.15}, 5.0, Rng(6));
  int fail_now = 0;
  int fail_both = 0;
  bool prev = model.step()[0];
  for (int i = 0; i < 80000; ++i) {
    const bool bad = model.step()[0];
    if (prev) {
      ++fail_now;
      if (bad) ++fail_both;
    }
    prev = bad;
  }
  ASSERT_GT(fail_now, 100);
  const double conditional =
      static_cast<double>(fail_both) / static_cast<double>(fail_now);
  EXPECT_GT(conditional, 0.5);  // Far above the stationary 0.15.
}

}  // namespace
}  // namespace rnt
