// Tests for the discrete-event probing simulator: event queue ordering,
// probe-level epoch semantics (RTT = sum of link delays, loss at failed
// links, timeout accounting).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/probe_engine.h"

namespace rnt::sim {
namespace {

// --------------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------------

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5.0, [&] { order.push_back(1); });
  q.schedule(5.0, [&] { order.push_back(2); });
  q.schedule(5.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ActionsCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilStopsEarly) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(10.0, [&] { ++fired; });
  EXPECT_EQ(q.run(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
}

// --------------------------------------------------------------------------
// ProbeEngine
// --------------------------------------------------------------------------

/// Paths (l0), (l0,l1), (l0,l1,l2) over 3 links.
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

TEST(ProbeEngine, RttIsSumOfLinkDelaysPlusProcessing) {
  const tomo::PathSystem sys = line_system();
  tomo::GroundTruth truth;
  truth.link_metrics = {2.0, 3.0, 4.0};
  ProbeEngineConfig cfg;
  cfg.per_hop_processing_ms = 0.5;
  cfg.jitter_std_ms = 0.0;
  ProbeEngine engine(sys, truth, cfg);
  Rng rng(1);
  failures::FailureVector none(3, false);
  const auto trace = engine.run_epoch({0, 1, 2}, none, rng);
  ASSERT_EQ(trace.outcomes.size(), 3u);
  EXPECT_TRUE(trace.outcomes[0].delivered);
  EXPECT_NEAR(trace.outcomes[0].rtt_ms, 2.5, 1e-12);
  EXPECT_NEAR(trace.outcomes[1].rtt_ms, 6.0, 1e-12);
  EXPECT_NEAR(trace.outcomes[2].rtt_ms, 10.5, 1e-12);
  // NOC receives after access delay; epoch completes at the last report.
  EXPECT_NEAR(trace.outcomes[2].reported_at_ms, 10.5 + 5.0, 1e-12);
  EXPECT_NEAR(trace.completed_at_ms, 15.5, 1e-12);
}

TEST(ProbeEngine, ProbeDiesAtFailedLink) {
  const tomo::PathSystem sys = line_system();
  tomo::GroundTruth truth;
  truth.link_metrics = {2.0, 3.0, 4.0};
  ProbeEngine engine(sys, truth);
  Rng rng(2);
  failures::FailureVector v = {false, true, false};  // l1 down
  const auto trace = engine.run_epoch({0, 1, 2}, v, rng);
  EXPECT_TRUE(trace.outcomes[0].delivered);
  EXPECT_FALSE(trace.outcomes[1].delivered);
  EXPECT_FALSE(trace.outcomes[2].delivered);
  // Loss detected at the timeout: epoch can't complete before it.
  EXPECT_GE(trace.completed_at_ms, 1000.0);
}

TEST(ProbeEngine, TimeoutDropsSlowProbes) {
  const tomo::PathSystem sys = line_system();
  tomo::GroundTruth truth;
  truth.link_metrics = {600.0, 600.0, 600.0};  // Path 1 takes 1200+ ms.
  ProbeEngineConfig cfg;
  cfg.timeout_ms = 1000.0;
  ProbeEngine engine(sys, truth, cfg);
  Rng rng(3);
  failures::FailureVector none(3, false);
  const auto trace = engine.run_epoch({0, 1}, none, rng);
  EXPECT_TRUE(trace.outcomes[0].delivered);   // ~600 ms < timeout
  EXPECT_FALSE(trace.outcomes[1].delivered);  // ~1200 ms > timeout
}

TEST(ProbeEngine, MeasurementsFeedEstimationExactly) {
  const tomo::PathSystem sys = line_system();
  tomo::GroundTruth truth;
  truth.link_metrics = {2.0, 3.0, 4.0};
  ProbeEngineConfig cfg;
  cfg.per_hop_processing_ms = 0.0;  // Pure link delays.
  ProbeEngine engine(sys, truth, cfg);
  Rng rng(4);
  failures::FailureVector none(3, false);
  const auto trace = engine.run_epoch({0, 1, 2}, none, rng);
  const auto measurements = trace.measurements();
  const auto estimate = tomo::estimate_link_metrics(sys, measurements, truth);
  ASSERT_EQ(estimate.identifiable.size(), 3u);
  EXPECT_NEAR(estimate.mean_abs_error, 0.0, 1e-9);
}

TEST(ProbeEngine, WireAccounting) {
  const tomo::PathSystem sys = line_system();
  tomo::GroundTruth truth;
  truth.link_metrics = {1.0, 1.0, 1.0};
  ProbeEngineConfig cfg;
  cfg.probe_bytes = 100;
  cfg.report_bytes = 200;
  ProbeEngine engine(sys, truth, cfg);
  Rng rng(5);
  failures::FailureVector v = {false, false, true};  // Path 2 lost.
  const auto trace = engine.run_epoch({0, 1, 2}, v, rng);
  // 3 probes sent, 2 delivered (reports): 3*100 + 2*200.
  EXPECT_EQ(trace.bytes_on_wire, 700u);
}

TEST(ProbeEngine, AvailabilityVectorAlignsWithSubset) {
  const tomo::PathSystem sys = line_system();
  tomo::GroundTruth truth;
  truth.link_metrics = {1.0, 1.0, 1.0};
  ProbeEngine engine(sys, truth);
  Rng rng(6);
  failures::FailureVector v = {false, true, false};
  const std::vector<std::size_t> subset = {2, 0};
  const auto trace = engine.run_epoch(subset, v, rng);
  const auto avail = trace.availability(subset);
  ASSERT_EQ(avail.size(), 2u);
  EXPECT_FALSE(avail[0]);  // Path 2 crosses l1.
  EXPECT_TRUE(avail[1]);   // Path 0 does not.
}

TEST(ProbeEngine, ValidatesInput) {
  const tomo::PathSystem sys = line_system();
  tomo::GroundTruth bad;
  bad.link_metrics = {1.0};
  EXPECT_THROW(ProbeEngine(sys, bad), std::invalid_argument);
  tomo::GroundTruth ok;
  ok.link_metrics = {1.0, 1.0, 1.0};
  ProbeEngineConfig cfg;
  cfg.timeout_ms = 0.0;
  EXPECT_THROW(ProbeEngine(sys, ok, cfg), std::invalid_argument);
  ProbeEngine engine(sys, ok);
  Rng rng(7);
  EXPECT_THROW(engine.run_epoch({0}, failures::FailureVector{true}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace rnt::sim
