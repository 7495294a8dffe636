// Tests for CGLS (dense and sparse) and the least-squares estimation path:
// exact solves on consistent systems, minimum-norm behavior, noise
// averaging vs the basis-subsystem solver; and the lane-major solver, whose
// every lane must be bit for bit the one-lane solve at every SIMD width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "exp/workload.h"
#include "infer/inference.h"
#include "linalg/cgls.h"
#include "linalg/elimination.h"
#include "testkit/dense_reference.h"
#include "testkit/instance.h"
#include "tomo/estimation.h"
#include "util/rng.h"

namespace rnt {
namespace {

TEST(Cgls, SolvesSquareConsistentSystem) {
  linalg::Matrix a{{2, 1}, {1, 3}};
  const std::vector<double> b = {5, 10};
  const auto result = linalg::cgls_solve(a, b);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-8);
  EXPECT_NEAR(result.x[1], 3.0, 1e-8);
  EXPECT_NEAR(result.residual_norm, 0.0, 1e-8);
}

TEST(Cgls, OverdeterminedLeastSquares) {
  // Three noisy observations of a single unknown: LS = mean.
  linalg::Matrix a{{1}, {1}, {1}};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  const auto result = linalg::cgls_solve(a, b);
  EXPECT_NEAR(result.x[0], 2.0, 1e-10);
  EXPECT_NEAR(result.residual_norm, std::sqrt(2.0), 1e-8);
}

TEST(Cgls, UnderdeterminedGivesMinimumNorm) {
  // x0 + x1 = 2: min-norm solution is (1, 1).
  linalg::Matrix a{{1, 1}};
  const std::vector<double> b = {2.0};
  const auto result = linalg::cgls_solve(a, b);
  EXPECT_NEAR(result.x[0], 1.0, 1e-10);
  EXPECT_NEAR(result.x[1], 1.0, 1e-10);
}

TEST(Cgls, SparseMatchesDense) {
  Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t rows = 4 + rng.index(8);
    const std::size_t cols = 3 + rng.index(6);
    linalg::Matrix a(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (rng.bernoulli(0.4)) a(r, c) = 1.0;
      }
    }
    std::vector<double> b(rows);
    for (double& v : b) v = rng.uniform(-3, 3);
    const auto dense = linalg::cgls_solve(a, b);
    const auto sparse =
        linalg::cgls_solve(linalg::SparseMatrix::from_dense(a), b);
    ASSERT_EQ(dense.x.size(), sparse.x.size());
    for (std::size_t i = 0; i < dense.x.size(); ++i) {
      EXPECT_NEAR(dense.x[i], sparse.x[i], 1e-7);
    }
  }
}

TEST(Cgls, EmptyAndMismatchedInput) {
  const auto empty = linalg::cgls_solve(linalg::Matrix(), std::vector<double>{});
  EXPECT_TRUE(empty.converged);
  EXPECT_TRUE(empty.x.empty());
  linalg::Matrix a{{1, 0}};
  const std::vector<double> bad = {1.0, 2.0};
  EXPECT_THROW(linalg::cgls_solve(a, bad), std::invalid_argument);
}

TEST(Cgls, ResidualOrthogonalToRange) {
  // LS optimality: Aᵀ(b - Ax) = 0.
  Rng rng(2);
  linalg::Matrix a(8, 4);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-1, 1);
  }
  std::vector<double> b(8);
  for (double& v : b) v = rng.uniform(-2, 2);
  const auto result = linalg::cgls_solve(a, b);
  const auto ax = a.multiply(std::span<const double>(result.x));
  std::vector<double> r(8);
  for (std::size_t i = 0; i < 8; ++i) r[i] = b[i] - ax[i];
  const auto atr = a.transposed().multiply(std::span<const double>(r));
  for (double v : atr) {
    EXPECT_NEAR(v, 0.0, 1e-7);
  }
}

TEST(LsqEstimation, AgreesWithBasisSolverNoiseless) {
  const exp::Workload w = exp::make_custom_workload(40, 80, 60, 5);
  Rng rng(6);
  const tomo::GroundTruth truth =
      tomo::random_delays(w.graph.edge_count(), rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto v = w.failures->sample(rng);
  const auto meas = tomo::simulate_measurements(*w.system, all, truth, v,
                                                /*noise_std=*/0.0, rng);
  const auto basis = tomo::estimate_link_metrics(*w.system, meas, truth);
  const auto lsq = tomo::estimate_link_metrics_lsq(*w.system, meas, truth);
  EXPECT_EQ(basis.identifiable, lsq.identifiable);
  EXPECT_NEAR(lsq.mean_abs_error, 0.0, 1e-6);
  for (std::size_t l : lsq.identifiable) {
    EXPECT_NEAR(lsq.estimates[l], basis.estimates[l], 1e-6);
  }
}

TEST(LsqEstimation, BeatsBasisSolverUnderNoise) {
  // With redundant measurements and noise, LS averages; the basis solver
  // commits to one noisy subsystem.  Compare mean errors over scenarios.
  const exp::Workload w = exp::make_custom_workload(40, 80, 80, 7);
  Rng rng(8);
  const tomo::GroundTruth truth =
      tomo::random_delays(w.graph.edge_count(), rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  double basis_err = 0.0;
  double lsq_err = 0.0;
  const double noise = 0.1;
  for (int s = 0; s < 25; ++s) {
    const auto v = w.failures->sample(rng);
    const auto meas =
        tomo::simulate_measurements(*w.system, all, truth, v, noise, rng);
    basis_err +=
        tomo::estimate_link_metrics(*w.system, meas, truth).mean_abs_error;
    lsq_err +=
        tomo::estimate_link_metrics_lsq(*w.system, meas, truth).mean_abs_error;
  }
  EXPECT_LT(lsq_err, basis_err);
}

TEST(LsqEstimation, EmptyMeasurements) {
  const exp::Workload w = exp::make_custom_workload(20, 40, 20, 9);
  tomo::GroundTruth truth;
  truth.link_metrics.assign(w.graph.edge_count(), 1.0);
  tomo::Measurements empty;
  const auto result =
      tomo::estimate_link_metrics_lsq(*w.system, empty, truth);
  EXPECT_TRUE(result.identifiable.empty());
}

TEST(Cgls, RankDeficientColumnsGiveMinimumNorm) {
  // Column 1 duplicates column 0, so solutions form a line: every LS
  // solution has x0 + x1 = 2 and x2 = 3; minimum norm picks (1, 1, 3).
  linalg::Matrix a{{1, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  const std::vector<double> b = {2.0, 3.0, 5.0};
  const auto result = linalg::cgls_solve(a, b);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-8);
  EXPECT_NEAR(result.x[1], 1.0, 1e-8);
  EXPECT_NEAR(result.x[2], 3.0, 1e-8);
  EXPECT_NEAR(result.residual_norm, 0.0, 1e-8);
  // The sparse variant agrees on the same rank-deficient system.
  const auto sparse = linalg::cgls_solve(linalg::SparseMatrix::from_dense(a), b);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sparse.x[i], result.x[i], 1e-8);
  }
}

TEST(Cgls, RankDeficientRowsAverageRedundantProbes) {
  // Duplicate measurement rows with conflicting values: LS averages them
  // instead of discarding the redundancy.
  linalg::Matrix a{{1, 0}, {1, 0}, {0, 1}};
  const std::vector<double> b = {1.0, 3.0, 2.0};
  const auto result = linalg::cgls_solve(a, b);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 2.0, 1e-10);
  EXPECT_NEAR(result.x[1], 2.0, 1e-10);
  EXPECT_NEAR(result.residual_norm, std::sqrt(2.0), 1e-8);
}

TEST(Cgls, ZeroRowsCarryNoInformation) {
  // An all-zero row (a fully failed path) only adds a constant to the
  // residual — the solution must ignore it, dense and sparse alike.
  linalg::Matrix a{{1, 0}, {0, 0}, {0, 1}};
  const std::vector<double> b = {4.0, 7.0, -2.0};
  for (const auto& result :
       {linalg::cgls_solve(a, b),
        linalg::cgls_solve(linalg::SparseMatrix::from_dense(a), b)}) {
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.x[0], 4.0, 1e-10);
    EXPECT_NEAR(result.x[1], -2.0, 1e-10);
    EXPECT_NEAR(result.residual_norm, 7.0, 1e-8);
  }
}

TEST(Cgls, InconsistentRankDeficientSystem) {
  // No exact solution (rows 0/1 disagree) *and* no unique LS solution
  // (rank 1 in a 2-column space): CGLS must still converge within its
  // iteration cap to the min-norm LS point.  Rows average to x0 + x1 = 2,
  // minimum norm picks (1, 1); the all-zero row only adds 5 to the
  // residual, giving ‖r‖ = sqrt(1 + 1 + 25).
  linalg::Matrix a{{1, 1}, {1, 1}, {0, 0}};
  const std::vector<double> b = {1.0, 3.0, 5.0};
  const auto result = linalg::cgls_solve(a, b);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 2 * a.cols());
  EXPECT_NEAR(result.x[0], 1.0, 1e-10);
  EXPECT_NEAR(result.x[1], 1.0, 1e-10);
  EXPECT_NEAR(result.residual_norm, std::sqrt(27.0), 1e-8);
}

TEST(Cgls, RankDeficientSolveIsDeterministic) {
  // The min-norm solution is unique, and the solver path is sequential:
  // repeated solves of the same rank-deficient system must agree bitwise
  // (the inference layer's thread-count determinism leans on this).
  Rng rng(11);
  linalg::Matrix a(10, 6);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      if (rng.bernoulli(0.4)) a(r, c) = 1.0;
    }
    a(r, 5) = a(r, 0);  // Duplicated column forces rank deficiency.
  }
  std::vector<double> b(10);
  for (double& v : b) v = rng.uniform(-2, 2);
  const auto first = linalg::cgls_solve(a, b);
  const auto second = linalg::cgls_solve(a, b);
  EXPECT_TRUE(first.converged);
  EXPECT_EQ(first.iterations, second.iterations);
  ASSERT_EQ(first.x.size(), second.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i) {
    EXPECT_EQ(first.x[i], second.x[i]);  // Bitwise, not approximate.
  }
  EXPECT_EQ(first.residual_norm, second.residual_norm);
}

TEST(Cgls, IterationCapReportsHonestResidual) {
  // A starved cap must be reported as non-convergence, with the residual
  // of the iterate actually reached — not the tolerance target.
  Rng rng(12);
  linalg::Matrix a(12, 8);
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 8; ++c) a(r, c) = rng.uniform(-1, 1);
  }
  std::vector<double> b(12);
  for (double& v : b) v = rng.uniform(-2, 2);
  linalg::CglsOptions starved;
  starved.max_iterations = 1;
  const auto capped = linalg::cgls_solve(a, b, starved);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.iterations, 1u);
  EXPECT_TRUE(std::isfinite(capped.residual_norm));
  // The full run converges and ends at a residual no worse than the
  // capped one (CGLS decreases ‖Ax − b‖ monotonically).
  const auto full = linalg::cgls_solve(a, b);
  EXPECT_TRUE(full.converged);
  EXPECT_LE(full.residual_norm, capped.residual_norm + 1e-12);
}

TEST(Cgls, AllZeroMatrixConvergesToZero) {
  // Aᵀb = 0 means x = 0 is already optimal; the solver must report
  // convergence without iterating instead of dividing by a zero norm.
  linalg::Matrix a(3, 2);
  const std::vector<double> b = {1.0, 2.0, 3.0};
  const auto result = linalg::cgls_solve(a, b);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_DOUBLE_EQ(result.x[0], 0.0);
  EXPECT_DOUBLE_EQ(result.x[1], 0.0);
  EXPECT_NEAR(result.residual_norm, std::sqrt(14.0), 1e-12);
}

// --------------------------------------------------------------------------
// Lane-major CGLS: each lane against the one-lane solve of its surviving
// rows and the full-width dense reference, at every width the CPU runs.
// --------------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

std::vector<linalg::SliceLane> supported_widths() {
  std::vector<linalg::SliceLane> widths;
  for (const linalg::SliceLane w :
       {linalg::SliceLane::kScalar64, linalg::SliceLane::kSimd256,
        linalg::SliceLane::kSimd512}) {
    if (linalg::resolve_slice_lane(w) == w) widths.push_back(w);
  }
  return widths;
}

/// Observations of `subset` under each scenario, noise keyed by index.
std::vector<infer::Observations> observe(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const std::vector<failures::FailureVector>& scenarios, double noise) {
  const infer::GroundTruth truth = infer::campaign_truth(
      infer::MeasurementModel::kDelay, system.link_count(), 11);
  std::vector<infer::Observations> out;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    Rng rng(infer::derive_seed(11, infer::kNoiseSalt + s));
    out.push_back(infer::synthesize_observations(system, subset, truth,
                                                 scenarios[s], noise, rng));
  }
  return out;
}

/// Checks every lane of one lane-major run over `subset`'s covered system
/// against its one-lane solve and the dense reference, at every width and
/// through infer::solve_lanes; returns the one-lane solutions.
std::vector<infer::ScenarioSolution> expect_lanes_match(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const std::vector<infer::Observations>& observations,
    const infer::SolveOptions& options = {}) {
  const std::size_t lanes = observations.size();
  const tomo::CoveredSystem covered = tomo::covered_system(system, subset);
  std::vector<double> b(subset.size() * lanes, 0.0);
  std::vector<double> mask(subset.size() * lanes, 0.0);
  std::vector<infer::ScenarioSolution> one;
  std::vector<linalg::RowSpace> spaces;
  for (std::size_t l = 0; l < lanes; ++l) {
    const infer::Observations& obs = observations[l];
    std::size_t next = 0;
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (next < obs.rows.size() && obs.rows[next] == subset[i]) {
        b[i * lanes + l] = obs.values[next++];
        mask[i * lanes + l] = 1.0;
      }
    }
    one.push_back(infer::solve_scenario(system, obs,
                                        infer::MeasurementModel::kDelay,
                                        options));
    const infer::ScenarioSolution dense = testkit::dense_solve_scenario(
        system, obs, infer::MeasurementModel::kDelay, options);
    EXPECT_TRUE(same_bits(one[l].additive, dense.additive)) << "lane " << l;
    EXPECT_EQ(one[l].iterations, dense.iterations) << "lane " << l;
    EXPECT_TRUE(same_bits(one[l].residual_norm, dense.residual_norm));
    EXPECT_EQ(one[l].converged, dense.converged);
    spaces.push_back(tomo::row_space_of(system, obs.rows));
  }

  linalg::CglsOptions cgls = options.cgls;
  if (cgls.max_iterations == 0) cgls.max_iterations = 2 * system.link_count();
  for (const linalg::SliceLane width : supported_widths()) {
    const std::vector<linalg::CglsResult> got = linalg::detail::cgls_solve_lanes(
        width, covered.matrix, b, mask, lanes, cgls);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::vector<double> x(system.link_count(), 0.0);
      for (std::size_t c = 0; c < covered.links.size(); ++c) {
        x[covered.links[c]] = got[l].x[c];
      }
      EXPECT_TRUE(same_bits(x, one[l].additive))
          << linalg::slice_lane_name(width) << " lane " << l;
      EXPECT_EQ(got[l].iterations, one[l].iterations)
          << linalg::slice_lane_name(width) << " lane " << l;
      EXPECT_TRUE(same_bits(got[l].residual_norm, one[l].residual_norm))
          << linalg::slice_lane_name(width) << " lane " << l;
      EXPECT_EQ(got[l].converged, one[l].converged);
    }
  }

  std::vector<const linalg::RowSpace*> space_ptrs;
  for (const linalg::RowSpace& space : spaces) space_ptrs.push_back(&space);
  const std::vector<infer::ScenarioSolution> lane_solutions =
      infer::solve_lanes(covered, subset, observations, space_ptrs,
                         infer::MeasurementModel::kDelay, options);
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_TRUE(same_bits(lane_solutions[l].additive, one[l].additive));
    EXPECT_TRUE(same_bits(lane_solutions[l].natural, one[l].natural));
    EXPECT_EQ(lane_solutions[l].identifiable, one[l].identifiable);
    EXPECT_EQ(lane_solutions[l].rank, one[l].rank);
    EXPECT_EQ(lane_solutions[l].surviving_rows, one[l].surviving_rows);
    EXPECT_EQ(lane_solutions[l].iterations, one[l].iterations);
  }
  return one;
}

std::vector<failures::FailureVector> draw_scenarios(
    const exp::Workload& w, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<failures::FailureVector> out;
  for (std::size_t s = 0; s < count; ++s) out.push_back(w.failures->sample(rng));
  return out;
}

TEST(CglsLanes, EveryLaneMatchesItsOneLaneSolveAtEveryWidth) {
  const exp::Workload w = exp::make_custom_workload(30, 60, 80, 5);
  std::vector<std::size_t> subset(w.system->path_count());
  std::iota(subset.begin(), subset.end(), std::size_t{0});
  // Distinct surviving sets, so lanes stop at different iterations and
  // the live lanes are compacted several times.
  const auto scenarios = draw_scenarios(w, 23, 3);
  const auto solutions = expect_lanes_match(
      *w.system, subset, observe(*w.system, subset, scenarios, 0.05));
  std::size_t lo = solutions.front().iterations;
  std::size_t hi = lo;
  for (const auto& s : solutions) {
    lo = std::min(lo, s.iterations);
    hi = std::max(hi, s.iterations);
  }
  EXPECT_LT(lo, hi);
}

TEST(CglsLanes, GroupsMatchPerScenarioSolvesAtAnyThreadCount) {
  // More scenarios than two lane groups: a full group, another, a tail.
  const exp::Workload w = exp::make_custom_workload(30, 60, 80, 5);
  std::vector<std::size_t> subset;
  for (std::size_t p = 0; p < w.system->path_count(); p += 2) {
    subset.push_back(p);
  }
  infer::InferenceConfig config;
  config.scenarios = 2 * infer::kLaneGroup + 5;
  const infer::GroundTruth truth = infer::campaign_truth(
      config.model, w.system->link_count(), 7, config.truth);
  const auto want = testkit::dense_solve_scenarios(
      *w.system, subset, *w.failures, truth, config, 7);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    config.threads = threads;
    const auto got = infer::solve_scenarios(
        *w.system, subset,
        [&w](Rng& rng) { return w.failures->sample(rng); }, truth, config, 7);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_TRUE(same_bits(got[s].additive, want[s].additive))
          << "threads " << threads << " scenario " << s;
      EXPECT_EQ(got[s].iterations, want[s].iterations);
      EXPECT_TRUE(same_bits(got[s].residual_norm, want[s].residual_norm));
      EXPECT_EQ(got[s].identifiable, want[s].identifiable);
    }
  }
}

TEST(CglsLanes, LanesWithNoSurvivingRows) {
  const exp::Workload w = exp::make_custom_workload(30, 60, 80, 5);
  std::vector<std::size_t> subset(w.system->path_count());
  std::iota(subset.begin(), subset.end(), std::size_t{0});
  auto scenarios = draw_scenarios(w, 9, 4);
  const failures::FailureVector all_down(w.system->link_count(), true);
  scenarios.insert(scenarios.begin(), all_down);
  scenarios.insert(scenarios.begin() + 5, all_down);
  scenarios.push_back(all_down);
  const auto solutions = expect_lanes_match(
      *w.system, subset, observe(*w.system, subset, scenarios, 0.05));
  for (const std::size_t l : {std::size_t{0}, std::size_t{5},
                              solutions.size() - 1}) {
    EXPECT_EQ(solutions[l].surviving_rows, 0u);
    EXPECT_EQ(solutions[l].iterations, 0u);
    EXPECT_TRUE(solutions[l].converged);
    EXPECT_TRUE(same_bits(solutions[l].residual_norm, 0.0));
    EXPECT_TRUE(solutions[l].identifiable.empty());
    for (const double x : solutions[l].additive) EXPECT_TRUE(same_bits(x, 0.0));
  }
}

TEST(CglsLanes, ZeroToleranceRunsToTheCap) {
  const exp::Workload w = exp::make_custom_workload(30, 60, 80, 5);
  std::vector<std::size_t> subset(w.system->path_count());
  std::iota(subset.begin(), subset.end(), std::size_t{0});
  infer::SolveOptions to_cap;
  to_cap.cgls.tolerance = 0.0;
  const auto scenarios = draw_scenarios(w, 12, 5);
  const auto solutions = expect_lanes_match(
      *w.system, subset, observe(*w.system, subset, scenarios, 0.05), to_cap);
  std::size_t capped = 0;
  for (const auto& s : solutions) {
    if (s.iterations == 2 * w.system->link_count()) ++capped;
  }
  EXPECT_GT(capped, 0u);
}

TEST(CglsLanes, ConsistentSystemStopsEarlyOnZeroGamma) {
  // One-link paths: AᵀA = I, so the first step has alpha = 1 exactly and
  // fits the observations with a residual of exactly 0; gamma reaches 0 at
  // iteration 1 even with tolerance 0.
  const testkit::TestInstance inst = testkit::make_instance(
      {{0}, {1}, {2}, {3}, {4}}, std::vector<double>(6, 0.1),
      std::vector<double>(5, 1.0), 1);
  const std::vector<std::size_t> subset = {0, 1, 2, 3, 4};
  const std::vector<std::vector<std::size_t>> survivors = {
      {0, 1, 2, 3, 4}, {1, 2}, {0, 3, 4}, {}, {2}};
  std::vector<infer::Observations> observations;
  for (const auto& rows : survivors) {
    infer::Observations obs;
    obs.rows = rows;
    for (const std::size_t r : rows) {
      obs.values.push_back(static_cast<double>(3 + 2 * r));
    }
    observations.push_back(obs);
  }
  infer::SolveOptions exact;
  exact.cgls.tolerance = 0.0;
  const auto solutions =
      expect_lanes_match(inst.system, subset, observations, exact);
  for (std::size_t l = 0; l < solutions.size(); ++l) {
    EXPECT_TRUE(solutions[l].converged) << "lane " << l;
    EXPECT_EQ(solutions[l].iterations, survivors[l].empty() ? 0u : 1u);
    EXPECT_TRUE(same_bits(solutions[l].residual_norm, 0.0));
  }
  EXPECT_EQ(solutions[0].additive[2], 7.0);
  EXPECT_TRUE(same_bits(solutions[1].additive[0], 0.0));  // Failed row.
  EXPECT_TRUE(same_bits(solutions[0].additive[5], 0.0));  // Never probed.
}

TEST(CglsLanes, SubsetListingAPathTwice) {
  const exp::Workload w = exp::make_custom_workload(30, 60, 80, 5);
  std::vector<std::size_t> subset = {4, 9, 17, 4, 22, 30, 9, 41};
  const auto scenarios = draw_scenarios(w, 10, 6);
  const auto observations = observe(*w.system, subset, scenarios, 0.05);
  std::size_t doubled = 0;
  for (const auto& obs : observations) {
    doubled += std::count(obs.rows.begin(), obs.rows.end(), std::size_t{4});
  }
  EXPECT_GT(doubled, 1u);
  expect_lanes_match(*w.system, subset, observations);
}

}  // namespace
}  // namespace rnt
