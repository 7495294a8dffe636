// Full-width dense references for the surviving-row system and the
// incremental basis.
//
// Production eliminates each surviving row list once per class, forked
// from the request subset's sparse basis (tomo::class_row_spaces), and
// solves on the links the rows cover (tomo::CoveredSystem).  These are the
// straightforward forms it replaced, kept as differential twins: a dense
// copy of the surviving rows over every link column, its rank, its
// reduced row-echelon row space, identifiability from an explicit
// null-space basis, a CSR operator from that dense copy, and CGLS over the
// full link width, recomputed for every scenario.  The compacted, memoized
// results must equal them bit for bit (the `restricted-solve-matches-dense`
// check).
//
// DenseIncrementalBasis is linalg::IncrementalBasis as it was before its
// eliminated rows went sparse: every row stored and reduced over all
// columns, and a second reduction pass to record an inserted row's
// combination.  The production basis must match it bit for bit (the
// `incremental-basis-reduction` check).
//
// DenseRowScenarioEngine is the scenario engine as it was before its
// accumulator took paths as unit rows: each gain and add reduces the
// path's full-width dense row.  The production accumulator must match it
// bit for bit (the `scenario-unit-rows-match-dense` check), and the ER
// micro-benchmark times it as the fixed yardstick of its kernel ratios.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/expected_rank.h"
#include "exp/metrics.h"
#include "infer/inference.h"
#include "infer/solver.h"
#include "linalg/elimination.h"
#include "linalg/incremental_basis.h"
#include "linalg/matrix.h"
#include "tomo/path_system.h"
#include "tomo/row_classes.h"

namespace rnt::testkit {

/// Dense-row twin of linalg::IncrementalBasis: the same public contract
/// at O(rank × dimension) per query.
class DenseIncrementalBasis {
 public:
  explicit DenseIncrementalBasis(std::size_t dimension,
                                 double tol = linalg::kDefaultTolerance,
                                 bool track_combinations = true);
  /// The first `prefix` eliminated rows of `other` (clamped to its rank).
  DenseIncrementalBasis(const DenseIncrementalBasis& other,
                        std::size_t prefix);

  std::size_t rank() const { return pivot_cols_.size(); }
  std::vector<std::size_t> pivot_columns() const { return pivot_cols_; }

  bool try_add(std::span<const double> row);
  bool is_independent(std::span<const double> row) const;
  bool is_independent_prefix(std::span<const double> row,
                             std::size_t prefix) const;
  linalg::Reduction reduce(std::span<const double> row) const;
  linalg::Reduction add_with_reduction(std::span<const double> row);

 private:
  linalg::Reduction reduce_impl(std::span<const double> row,
                                std::vector<double>* out_reduced,
                                std::size_t limit) const;

  std::size_t dimension_;
  double tol_;
  bool track_combinations_;
  std::vector<std::vector<double>> eliminated_;
  std::vector<std::size_t> pivot_cols_;
  std::vector<std::vector<double>> combos_;
};

/// core::ScenarioErEngine whose accumulator feeds each path's dense row
/// (one tomo::path_matrix per engine) through linalg::IncrementalBasis's
/// span overloads, with the production memo and per-scenario order: the
/// arithmetic and cost of the scenario accumulator before unit rows.
/// evaluate() is the production one.
class DenseRowScenarioEngine final : public core::ScenarioErEngine {
 public:
  DenseRowScenarioEngine(const tomo::PathSystem& system,
                         std::vector<failures::FailureVector> scenarios,
                         std::vector<double> weights, std::string name);

  std::unique_ptr<core::ErAccumulator> make_accumulator() const override;

 private:
  linalg::Matrix rows_;  ///< tomo::path_matrix of every path.
};

/// Rank and identifiable columns of `m` from one dense reduced row-echelon
/// pass: column j is identifiable iff it is a pivot column and
/// |R(i, f)| <= tol in its pivot row i for every free column f (the same
/// test as "every null_space vector is zero at j", without building the
/// vectors).  The dense form production's sparse class bases replaced
/// (tomo::class_row_spaces).
linalg::RowSpace row_space(const linalg::Matrix& m,
                           double tol = linalg::kDefaultTolerance);

/// row_space(m, tol).identifiable.
std::vector<std::size_t> identifiable_columns(
    const linalg::Matrix& m, double tol = linalg::kDefaultTolerance);

/// Every class's row space from a dense row_space pass of its own over
/// the links its rows cover (identifiable entries are link ids): the
/// per-class elimination tomo::class_row_spaces replaced.
std::vector<linalg::RowSpace> dense_class_row_spaces(
    const tomo::PathSystem& system, const tomo::RowClasses& classes);

/// Basis of the null space of `m` from its reduced row-echelon form: one
/// vector of width m.cols() per free column, cols - rank in all.
std::vector<std::vector<double>> null_space(
    const linalg::Matrix& m, double tol = linalg::kDefaultTolerance);

/// Columns j at which every null_space basis vector is zero (|v_j| <= tol).
std::vector<std::size_t> null_space_identifiable(
    const linalg::Matrix& m, double tol = linalg::kDefaultTolerance);

/// Rank of `rows` over every link column.
std::size_t dense_rank(const tomo::PathSystem& system,
                       const std::vector<std::size_t>& rows);

/// Identifiable links of `rows` from the full-width null space.
std::vector<std::size_t> dense_identifiable(
    const tomo::PathSystem& system, const std::vector<std::size_t>& rows);

/// infer::solve_scenario on the full-width dense copy: dense rank,
/// null-space identifiability, SparseMatrix::from_dense and CGLS over
/// every link column.
infer::ScenarioSolution dense_solve_scenario(
    const tomo::PathSystem& system, const infer::Observations& observations,
    infer::MeasurementModel model, const infer::SolveOptions& options = {});

/// exp::evaluate_selection, eliminating every scenario afresh.
exp::SelectionEvaluation dense_evaluate_selection(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& model, const exp::EvalOptions& options,
    Rng& rng);

/// exp::evaluate_loss, eliminating every scenario afresh.
exp::LossEvaluation dense_evaluate_loss(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& model, std::size_t scenarios,
    bool identifiability, Rng& rng);

/// infer::solve_scenarios with dense_solve_scenario per scenario (same
/// seed derivation, same scenario and noise streams).
std::vector<infer::ScenarioSolution> dense_solve_scenarios(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& failures, const infer::GroundTruth& truth,
    const infer::InferenceConfig& config, std::uint64_t seed);

/// infer::run_inference on dense_solve_scenarios (same scenario-order
/// reduction).
infer::InferenceReport dense_run_inference(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& failures, const infer::GroundTruth& truth,
    const infer::InferenceConfig& config, std::uint64_t seed);

}  // namespace rnt::testkit
