// Tests for the scenario-sliced rank kernel: sliced_ranks against the
// testkit's exact rank referee per instance at word-boundary instance
// counts, lane-width parity, the GF(3) bit-plane add formula
// over all nine digit pairs, degenerate instances (nothing survives), and
// the engine-level contracts (duplicate-scenario dedup, per-kernel rank
// memo isolation).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "exp/workload.h"
#include "linalg/bitrank.h"
#include "linalg/slicedrank.h"
#include "testkit/oracles.h"
#include "util/rng.h"

namespace rnt::linalg {
namespace {

/// Random 0/1 rows plus a random alive mask per (row, instance).
struct SlicedCase {
  BitRows rows{0};
  std::vector<std::uint64_t> alive;
  std::size_t instances = 0;
  std::size_t stride = 0;
};

SlicedCase random_case(Rng& rng, std::size_t n_rows, std::size_t cols,
                       std::size_t instances, double row_density,
                       double alive_density) {
  SlicedCase c;
  c.rows = BitRows(cols);
  c.instances = instances;
  c.stride = (instances + 63) / 64;
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<bool> flags(cols, false);
    for (std::size_t l = 0; l < cols; ++l) {
      if (rng.bernoulli(row_density)) flags[l] = true;
    }
    c.rows.append_flags(flags);
  }
  c.alive.assign(n_rows * c.stride, 0);
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::size_t s = 0; s < instances; ++s) {
      if (rng.bernoulli(alive_density)) {
        c.alive[r * c.stride + s / 64] |= std::uint64_t{1} << (s % 64);
      }
    }
  }
  return c;
}

/// Per-instance oracle: the exact rank referee over the rows alive in s.
std::vector<std::size_t> oracle_ranks(const SlicedCase& c) {
  std::vector<std::size_t> out(c.instances, 0);
  for (std::size_t s = 0; s < c.instances; ++s) {
    std::vector<std::vector<double>> alive_rows;
    for (std::size_t r = 0; r < c.rows.rows(); ++r) {
      if ((c.alive[r * c.stride + s / 64] >> (s % 64)) & 1u) {
        auto& row = alive_rows.emplace_back(c.rows.cols(), 0.0);
        for (std::size_t l = 0; l < c.rows.cols(); ++l) {
          if (c.rows.bit(r, l)) row[l] = 1.0;
        }
      }
    }
    out[s] = testkit::exact_rank(alive_rows);
  }
  return out;
}

// Instance counts straddling the 64-lane word boundaries: 1, 63, 64, 65,
// 127, 128 — a lone lane, a full word minus one, exactly one word, one
// word plus a tail, and the same around the second word.
TEST(SlicedRanks, MatchesOracleAcrossWordBoundaries) {
  Rng rng(2024);
  for (const std::size_t instances : {1u, 63u, 64u, 65u, 127u, 128u}) {
    for (int rep = 0; rep < 3; ++rep) {
      const SlicedCase c =
          random_case(rng, 24, 40, instances, 0.2, 0.7);
      const auto expected = oracle_ranks(c);
      const auto got = sliced_ranks(c.rows, c.alive, c.instances);
      ASSERT_EQ(got.size(), instances);
      for (std::size_t s = 0; s < instances; ++s) {
        EXPECT_EQ(got[s], expected[s])
            << instances << " instances, rep " << rep << ", instance " << s;
      }
    }
  }
}

// All lane widths compute identical bits; unsupported explicit requests
// fall back to a supported width, so every enum value is safe to force.
TEST(SlicedRanks, ForcedScalarMatchesWidestLane) {
  Rng rng(7);
  const SlicedCase c = random_case(rng, 48, 96, 128, 0.15, 0.6);
  const auto widest = sliced_ranks(c.rows, c.alive, c.instances,
                                   SliceLane::kAuto);
  for (const SliceLane lane :
       {SliceLane::kScalar64, SliceLane::kSimd256, SliceLane::kSimd512}) {
    const auto forced = sliced_ranks(c.rows, c.alive, c.instances, lane);
    EXPECT_EQ(forced, widest) << slice_lane_name(resolve_slice_lane(lane));
  }
}

// An instance in which no row survives (all links failed) must rank 0
// without disturbing its neighbours; a row alive nowhere costs nothing.
TEST(SlicedRanks, NothingSurvivingRanksZero) {
  Rng rng(11);
  SlicedCase c = random_case(rng, 16, 30, 65, 0.25, 0.8);
  // Kill instance 0 (first word) and instance 64 (the one-lane tail).
  for (std::size_t r = 0; r < c.rows.rows(); ++r) {
    c.alive[r * c.stride + 0] &= ~std::uint64_t{1};
    c.alive[r * c.stride + 1] = 0;
  }
  const auto expected = oracle_ranks(c);
  EXPECT_EQ(expected[0], 0u);
  EXPECT_EQ(expected[64], 0u);
  EXPECT_EQ(sliced_ranks(c.rows, c.alive, c.instances), expected);

  // And the fully degenerate corners: no rows at all, zero instances.
  const BitRows empty(30);
  const std::vector<std::uint64_t> no_alive(1, 0);
  EXPECT_TRUE(sliced_ranks(empty, no_alive, 0).empty());
  const auto lone = sliced_ranks(empty, no_alive, 1);
  ASSERT_EQ(lone.size(), 1u);
  EXPECT_EQ(lone[0], 0u);
}

// Instances with identical alive columns are the duplicate-scenario case
// the engine dedups; the standalone driver must give them identical
// ranks through its history-grouping (they never split apart).
TEST(SlicedRanks, DuplicateInstancesAgree) {
  Rng rng(13);
  SlicedCase c = random_case(rng, 20, 36, 66, 0.2, 0.65);
  // Copy instance 3's column into 5, 40 and 65 (crossing the word
  // boundary so a duplicate pair spans two slices of one word each).
  for (std::size_t r = 0; r < c.rows.rows(); ++r) {
    const bool bit =
        (c.alive[r * c.stride + 0] >> 3) & 1u;
    auto set = [&](std::size_t s, bool on) {
      std::uint64_t& w = c.alive[r * c.stride + s / 64];
      const std::uint64_t m = std::uint64_t{1} << (s % 64);
      w = on ? (w | m) : (w & ~m);
    };
    set(5, bit);
    set(40, bit);
    set(65, bit);
  }
  const auto got = sliced_ranks(c.rows, c.alive, c.instances);
  EXPECT_EQ(got[5], got[3]);
  EXPECT_EQ(got[40], got[3]);
  EXPECT_EQ(got[65], got[3]);
  EXPECT_EQ(got, oracle_ranks(c));
}

// The GF(3) two-plane add formula used by every gf3_step lane body:
//   zl = (a & ~(c|d)) | (c & ~(a|b)) | (b & d)
//   zh = (b & ~(c|d)) | (d & ~(a|b)) | (a & c)
// brute-forced over all nine digit pairs in the (lo, hi) encoding
// 0 -> (0,0), 1 -> (1,0), 2 -> (0,1).
TEST(SlicedRanks, Gf3AddFormulaExhaustive) {
  auto lo_of = [](int v) -> std::uint64_t { return v == 1 ? 1 : 0; };
  auto hi_of = [](int v) -> std::uint64_t { return v == 2 ? 1 : 0; };
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      const std::uint64_t a = lo_of(x), b = hi_of(x);
      const std::uint64_t c = lo_of(y), d = hi_of(y);
      const std::uint64_t zl = (a & ~(c | d)) | (c & ~(a | b)) | (b & d);
      const std::uint64_t zh = (b & ~(c | d)) | (d & ~(a | b)) | (a & c);
      const int z = (x + y) % 3;
      EXPECT_EQ(zl, lo_of(z)) << x << " + " << y;
      EXPECT_EQ(zh, hi_of(z)) << x << " + " << y;
    }
  }
}

}  // namespace
}  // namespace rnt::linalg

namespace rnt {
namespace {

// ---------------------------------------------------------------------------
// Engine-level contracts for the sliced kernel.
// ---------------------------------------------------------------------------

struct Engines {
  exp::Workload workload;
  std::unique_ptr<core::MonteCarloEr> scenario;
  std::unique_ptr<core::KernelErEngine> engine;
};

Engines make_engines(std::size_t runs, std::uint64_t seed) {
  Engines e;
  e.workload = exp::make_custom_workload(40, 80, 40, seed, 5.0);
  Rng rng(seed * 31 + 7);
  e.scenario = std::make_unique<core::MonteCarloEr>(
      *e.workload.system, *e.workload.failures, runs, rng);
  e.engine = std::make_unique<core::KernelErEngine>(
      *e.workload.system, e.scenario->scenarios(), e.scenario->weights(),
      e.scenario->name());
  return e;
}

std::vector<std::size_t> all_paths(const Engines& e) {
  std::vector<std::size_t> all(e.workload.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

// Sliced and scalar kernels fill disjoint cross-call rank memos: warming
// one must leave the other empty, so switching kernels can never replay
// a rank cached under different arithmetic.
TEST(SlicedKernel, RankMemoIsolatedPerKernel) {
  Engines e = make_engines(64, 5);
  const std::vector<std::size_t> subset = all_paths(e);

  e.engine->set_kernel_mode(core::KernelMode::kSliced);
  const double sliced_er = e.engine->evaluate(subset);
  EXPECT_GT(e.engine->rank_memo_entries(core::KernelMode::kSliced), 0u);
  EXPECT_EQ(e.engine->rank_memo_entries(core::KernelMode::kScalar), 0u);

  e.engine->set_kernel_mode(core::KernelMode::kScalar);
  const double scalar_er = e.engine->evaluate(subset);
  EXPECT_GT(e.engine->rank_memo_entries(core::KernelMode::kScalar), 0u);
  EXPECT_EQ(sliced_er, scalar_er);

  // Warm memos from one kernel never change the other's answers: flip
  // back and the sliced result is still bitwise identical.
  e.engine->set_kernel_mode(core::KernelMode::kSliced);
  EXPECT_EQ(e.engine->evaluate(subset), sliced_er);
}

// A scenario list with duplicates dedups into classes; the sliced kernel
// must produce the same ER as the scalar kernel and the same weighted
// rank sum as per-scenario elimination, duplicates and all.
TEST(SlicedKernel, DuplicateScenariosDedupBitwise) {
  Engines e = make_engines(48, 9);
  // Duplicate every third scenario (with its weight) into a longer list.
  std::vector<failures::FailureVector> scenarios = e.scenario->scenarios();
  std::vector<double> weights = e.scenario->weights();
  const std::size_t base = scenarios.size();
  for (std::size_t s = 0; s < base; s += 3) {
    scenarios.push_back(scenarios[s]);
    weights.push_back(weights[s]);
  }
  core::KernelErEngine dup(*e.workload.system, scenarios, weights, "dup");

  const std::vector<std::size_t> subset = all_paths(e);
  dup.set_kernel_mode(core::KernelMode::kSliced);
  const double sliced_er = dup.evaluate(subset);
  dup.set_kernel_mode(core::KernelMode::kScalar);
  EXPECT_EQ(dup.evaluate(subset), sliced_er);

  // Dedup means the class structure is smaller than the scenario list.
  EXPECT_LT(dup.scenario_classes().count(), scenarios.size());

  // Per-scenario ranks are still reported per *scenario*, not per class.
  dup.set_kernel_mode(core::KernelMode::kSliced);
  const auto ranks = dup.scenario_ranks(subset);
  ASSERT_EQ(ranks.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size() - base; ++i) {
    EXPECT_EQ(ranks[base + i], ranks[i * 3]) << "duplicate scenario " << i;
  }
}

// The accumulator under the sliced kernel is bitwise the scalar one over
// a full greedy trajectory, including once known-dependent lanes (a
// "dependent" verdict, or the path's own commit) are masked out.
TEST(SlicedKernel, AccumulatorBitwiseScalarTrajectory) {
  Engines e = make_engines(96, 17);
  e.engine->set_kernel_mode(core::KernelMode::kSliced);
  core::KernelErEngine scalar(*e.workload.system, e.scenario->scenarios(),
                              e.scenario->weights(), e.scenario->name());
  scalar.set_kernel_mode(core::KernelMode::kScalar);

  auto sliced_acc = e.engine->make_accumulator();
  auto scalar_acc = scalar.make_accumulator();
  Rng rng(99);
  std::vector<std::size_t> order = all_paths(e);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  for (const std::size_t path : order) {
    for (std::size_t q = 0; q < order.size(); ++q) {
      ASSERT_EQ(sliced_acc->gain(q), scalar_acc->gain(q))
          << "gain(" << q << ") after " << path;
    }
    sliced_acc->add(path);
    scalar_acc->add(path);
    ASSERT_EQ(sliced_acc->value(), scalar_acc->value());
  }
  // The full set's value tracks evaluate() (the accumulator sums class
  // weights incrementally; evaluate() reduces per-scenario ranks in
  // fixed-size chunks, so agreement is within float tolerance, and the
  // bitwise contract above is sliced == scalar, not accumulator ==
  // evaluate).
  EXPECT_NEAR(sliced_acc->value(), e.engine->evaluate(order), 1e-9);
}

}  // namespace
}  // namespace rnt
