// Full-width dense references for the surviving-row system.
//
// Production eliminates and solves each surviving row list once, on the
// links those rows cover (tomo::CoveredSystem, tomo::RowClasses).  These
// are the straightforward forms it replaced, kept as differential twins:
// a dense copy of the surviving rows over every link column, its rank,
// identifiability from an explicit null-space basis, a CSR operator from
// that dense copy, and CGLS over the full link width, recomputed for every
// scenario.  The compacted, memoized results must equal them bit for bit
// (the `restricted-solve-matches-dense` check).
#pragma once

#include <cstddef>
#include <vector>

#include "exp/metrics.h"
#include "infer/inference.h"
#include "infer/solver.h"
#include "linalg/elimination.h"
#include "linalg/matrix.h"
#include "tomo/path_system.h"

namespace rnt::testkit {

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

/// infer::run_inference on one thread with dense_solve_scenario per
/// scenario (same seed derivation and scenario-order reduction).
infer::InferenceReport dense_run_inference(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& failures, const infer::GroundTruth& truth,
    const infer::InferenceConfig& config, std::uint64_t seed);

}  // namespace rnt::testkit
