#include "testkit/dense_reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/gain_memo.h"
#include "linalg/cgls.h"
#include "linalg/sparse.h"

namespace rnt::testkit {

namespace {

std::vector<std::size_t> every_path(const tomo::PathSystem& system) {
  std::vector<std::size_t> out(system.path_count());
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

/// The scenario accumulator with dense path rows: one rank-only basis per
/// scenario, a path's gain the weight of the scenarios where it survives
/// and raises the surviving rank.
class DenseRowScenarioAccumulator final : public core::ErAccumulator {
 public:
  DenseRowScenarioAccumulator(
      const tomo::PathSystem& system, const linalg::Matrix& rows,
      const std::vector<failures::FailureVector>& scenarios,
      const std::vector<double>& weights)
      : system_(system),
        rows_(rows),
        scenarios_(scenarios),
        weights_(weights),
        memo_(system.path_count()) {
    bases_.reserve(scenarios_.size());
    for (std::size_t s = 0; s < scenarios_.size(); ++s) {
      bases_.emplace_back(system_.link_count(), linalg::kDefaultTolerance,
                          /*track_combinations=*/false);
    }
  }

  double gain(std::size_t path) const override {
    return memo_.get(path, [&] {
      double g = 0.0;
      const auto row = rows_.row(path);
      for (std::size_t s = 0; s < scenarios_.size(); ++s) {
        if (!system_.path_survives(path, scenarios_[s])) continue;
        if (bases_[s].is_independent(row)) g += weights_[s];
      }
      return g;
    });
  }

  void add(std::size_t path) override {
    const auto row = rows_.row(path);
    for (std::size_t s = 0; s < scenarios_.size(); ++s) {
      if (!system_.path_survives(path, scenarios_[s])) continue;
      if (bases_[s].try_add(row)) value_ += weights_[s];
    }
    memo_.invalidate();
  }

  double value() const override { return value_; }
  std::size_t gain_computations() const override {
    return memo_.computations();
  }

 private:
  const tomo::PathSystem& system_;
  const linalg::Matrix& rows_;
  const std::vector<failures::FailureVector>& scenarios_;
  const std::vector<double>& weights_;
  std::vector<linalg::IncrementalBasis> bases_;
  core::GainMemo memo_;
  double value_ = 0.0;
};

}  // namespace

DenseRowScenarioEngine::DenseRowScenarioEngine(
    const tomo::PathSystem& system,
    std::vector<failures::FailureVector> scenarios, std::vector<double> weights,
    std::string name)
    : core::ScenarioErEngine(system, std::move(scenarios), std::move(weights),
                             std::move(name)),
      rows_(tomo::path_matrix(system, every_path(system))) {}

std::unique_ptr<core::ErAccumulator>
DenseRowScenarioEngine::make_accumulator() const {
  return std::make_unique<DenseRowScenarioAccumulator>(system_, rows_,
                                                       scenarios_, weights_);
}

DenseIncrementalBasis::DenseIncrementalBasis(std::size_t dimension,
                                             double tol,
                                             bool track_combinations)
    : dimension_(dimension),
      tol_(tol),
      track_combinations_(track_combinations) {}

DenseIncrementalBasis::DenseIncrementalBasis(
    const DenseIncrementalBasis& other, std::size_t prefix)
    : dimension_(other.dimension_),
      tol_(other.tol_),
      track_combinations_(other.track_combinations_) {
  prefix = std::min(prefix, other.eliminated_.size());
  eliminated_.assign(other.eliminated_.begin(),
                     other.eliminated_.begin() + prefix);
  pivot_cols_.assign(other.pivot_cols_.begin(),
                     other.pivot_cols_.begin() + prefix);
  if (track_combinations_) {
    combos_.assign(other.combos_.begin(), other.combos_.begin() + prefix);
  }
}

linalg::Reduction DenseIncrementalBasis::reduce_impl(
    std::span<const double> row, std::vector<double>* out_reduced,
    std::size_t limit) const {
  if (row.size() != dimension_) {
    throw std::invalid_argument(
        "DenseIncrementalBasis: row dimension mismatch");
  }
  limit = std::min(limit, eliminated_.size());
  std::vector<double> r(row.begin(), row.end());
  std::vector<double> combo(track_combinations_ ? limit : 0, 0.0);
  for (std::size_t i = 0; i < limit; ++i) {
    const std::size_t p = pivot_cols_[i];
    const double factor = r[p] / eliminated_[i][p];
    if (std::abs(factor) <= tol_) continue;
    for (std::size_t c = 0; c < dimension_; ++c) {
      r[c] -= factor * eliminated_[i][c];
    }
    r[p] = 0.0;
    if (track_combinations_) {
      for (std::size_t j = 0; j < combos_[i].size(); ++j) {
        combo[j] += factor * combos_[i][j];
      }
    }
  }
  linalg::Reduction result;
  double max_abs = 0.0;
  for (double v : r) max_abs = std::max(max_abs, std::abs(v));
  result.independent = max_abs > tol_;
  if (!result.independent && track_combinations_) {
    for (std::size_t j = 0; j < combo.size(); ++j) {
      if (std::abs(combo[j]) > tol_) {
        result.support.push_back(j);
        result.coefficients.push_back(combo[j]);
      }
    }
  }
  if (out_reduced != nullptr) *out_reduced = std::move(r);
  return result;
}

linalg::Reduction DenseIncrementalBasis::reduce(
    std::span<const double> row) const {
  return reduce_impl(row, nullptr, eliminated_.size());
}

bool DenseIncrementalBasis::is_independent(
    std::span<const double> row) const {
  return reduce_impl(row, nullptr, eliminated_.size()).independent;
}

bool DenseIncrementalBasis::is_independent_prefix(
    std::span<const double> row, std::size_t prefix) const {
  return reduce_impl(row, nullptr, prefix).independent;
}

linalg::Reduction DenseIncrementalBasis::add_with_reduction(
    std::span<const double> row) {
  std::vector<double> reduced;
  linalg::Reduction result = reduce_impl(row, &reduced, eliminated_.size());
  if (!result.independent) return result;
  std::size_t pivot = 0;
  double best = 0.0;
  for (std::size_t c = 0; c < dimension_; ++c) {
    const double v = std::abs(reduced[c]);
    if (v > best) {
      best = v;
      pivot = c;
    }
  }
  // Second full pass recording the subtracted combination.
  std::vector<double> combo(track_combinations_ ? rank() + 1 : 0, 0.0);
  if (track_combinations_) {
    std::vector<double> r(row.begin(), row.end());
    for (std::size_t i = 0; i < eliminated_.size(); ++i) {
      const std::size_t p = pivot_cols_[i];
      const double factor = r[p] / eliminated_[i][p];
      if (std::abs(factor) <= tol_) continue;
      for (std::size_t c = 0; c < dimension_; ++c) {
        r[c] -= factor * eliminated_[i][c];
      }
      r[p] = 0.0;
      for (std::size_t j = 0; j < combos_[i].size(); ++j) {
        combo[j] -= factor * combos_[i][j];
      }
    }
    combo[rank()] = 1.0;
  }
  eliminated_.push_back(std::move(reduced));
  pivot_cols_.push_back(pivot);
  combos_.push_back(std::move(combo));
  return result;
}

bool DenseIncrementalBasis::try_add(std::span<const double> row) {
  return add_with_reduction(row).independent;
}

linalg::RowSpace row_space(const linalg::Matrix& m, double tol) {
  linalg::RowSpace out;
  if (m.empty()) return out;
  const linalg::EchelonForm ef = linalg::reduced_row_echelon(m, tol);
  out.rank = ef.rank;
  std::vector<bool> is_pivot(m.cols(), false);
  for (const std::size_t pc : ef.pivots) is_pivot[pc] = true;
  std::vector<std::size_t> free_cols;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    if (!is_pivot[c]) free_cols.push_back(c);
  }
  for (std::size_t i = 0; i < ef.rank; ++i) {
    bool pinned = true;
    for (const std::size_t f : free_cols) {
      if (std::abs(ef.reduced(i, f)) > tol) {
        pinned = false;
        break;
      }
    }
    if (pinned) out.identifiable.push_back(ef.pivots[i]);
  }
  return out;
}

std::vector<std::size_t> identifiable_columns(const linalg::Matrix& m,
                                              double tol) {
  return row_space(m, tol).identifiable;
}

std::vector<linalg::RowSpace> dense_class_row_spaces(
    const tomo::PathSystem& system, const tomo::RowClasses& classes) {
  std::vector<linalg::RowSpace> spaces;
  spaces.reserve(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const tomo::CoveredSystem covered =
        tomo::covered_system(system, classes.rows(c));
    linalg::RowSpace& space =
        spaces.emplace_back(row_space(covered.matrix.to_dense()));
    for (std::size_t& j : space.identifiable) j = covered.links[j];
  }
  return spaces;
}

std::vector<std::vector<double>> null_space(const linalg::Matrix& m,
                                            double tol) {
  std::vector<std::vector<double>> basis;
  const std::size_t cols = m.cols();
  if (cols == 0) return basis;
  if (m.rows() == 0) {
    // Whole space is the null space.
    for (std::size_t j = 0; j < cols; ++j) {
      std::vector<double> v(cols, 0.0);
      v[j] = 1.0;
      basis.push_back(std::move(v));
    }
    return basis;
  }
  const linalg::EchelonForm ef = linalg::reduced_row_echelon(m, tol);
  std::vector<bool> is_pivot(cols, false);
  for (const std::size_t pc : ef.pivots) is_pivot[pc] = true;
  for (std::size_t free_col = 0; free_col < cols; ++free_col) {
    if (is_pivot[free_col]) continue;
    std::vector<double> v(cols, 0.0);
    v[free_col] = 1.0;
    // Each pivot variable x_{pc} = -R(i, free_col) with the free var at 1.
    for (std::size_t i = 0; i < ef.rank; ++i) {
      v[ef.pivots[i]] = -ef.reduced(i, free_col);
    }
    basis.push_back(std::move(v));
  }
  return basis;
}

std::vector<std::size_t> null_space_identifiable(const linalg::Matrix& m,
                                                 double tol) {
  std::vector<std::size_t> out;
  const auto ns = null_space(m, tol);
  for (std::size_t j = 0; j < m.cols(); ++j) {
    bool identifiable = true;
    for (const auto& v : ns) {
      if (std::abs(v[j]) > tol) {
        identifiable = false;
        break;
      }
    }
    if (identifiable) out.push_back(j);
  }
  return out;
}

std::size_t dense_rank(const tomo::PathSystem& system,
                       const std::vector<std::size_t>& rows) {
  return linalg::rank(tomo::path_matrix(system, rows));
}

std::vector<std::size_t> dense_identifiable(
    const tomo::PathSystem& system, const std::vector<std::size_t>& rows) {
  if (rows.empty()) return {};
  return null_space_identifiable(tomo::path_matrix(system, rows));
}

infer::ScenarioSolution dense_solve_scenario(
    const tomo::PathSystem& system, const infer::Observations& observations,
    infer::MeasurementModel model, const infer::SolveOptions& options) {
  if (observations.rows.size() != observations.values.size()) {
    throw std::invalid_argument(
        "dense_solve_scenario: rows/values size mismatch");
  }
  infer::ScenarioSolution solution;
  solution.additive.assign(system.link_count(), 0.0);
  solution.natural.assign(system.link_count(), 0.0);
  solution.surviving_rows = observations.rows.size();
  if (observations.rows.empty()) {
    solution.converged = true;
    for (std::size_t l = 0; l < system.link_count(); ++l) {
      solution.natural[l] = infer::to_natural(model, 0.0);
    }
    return solution;
  }
  const linalg::Matrix restricted =
      tomo::path_matrix(system, observations.rows);
  solution.rank = linalg::rank(restricted);
  solution.identifiable = null_space_identifiable(restricted);
  const linalg::CglsResult cgls = linalg::cgls_solve(
      linalg::SparseMatrix::from_dense(restricted), observations.values,
      options.cgls);
  solution.additive = cgls.x;
  solution.iterations = cgls.iterations;
  solution.residual_norm = cgls.residual_norm;
  solution.converged = cgls.converged;
  for (std::size_t l = 0; l < system.link_count(); ++l) {
    solution.natural[l] = infer::to_natural(model, solution.additive[l]);
  }
  return solution;
}

exp::SelectionEvaluation dense_evaluate_selection(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& model, const exp::EvalOptions& options,
    Rng& rng) {
  exp::SelectionEvaluation eval;
  eval.no_failure_rank = dense_rank(system, subset);
  if (options.identifiability) {
    eval.no_failure_identifiability =
        dense_identifiable(system, subset).size();
  }
  for (std::size_t s = 0; s < options.scenarios; ++s) {
    const auto survivors = system.surviving_rows(subset, model.sample(rng));
    eval.rank.add(static_cast<double>(dense_rank(system, survivors)));
    if (options.identifiability) {
      eval.identifiability.add(
          static_cast<double>(dense_identifiable(system, survivors).size()));
    }
  }
  return eval;
}

exp::LossEvaluation dense_evaluate_loss(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& model, std::size_t scenarios,
    bool identifiability, Rng& rng) {
  exp::LossEvaluation loss;
  const double base_rank = static_cast<double>(dense_rank(system, subset));
  const double base_ident =
      identifiability
          ? static_cast<double>(dense_identifiable(system, subset).size())
          : 0.0;
  for (std::size_t s = 0; s < scenarios; ++s) {
    const auto survivors = system.surviving_rows(subset, model.sample(rng));
    loss.rank_loss.add(base_rank -
                       static_cast<double>(dense_rank(system, survivors)));
    if (identifiability) {
      loss.identifiability_loss.add(
          base_ident -
          static_cast<double>(dense_identifiable(system, survivors).size()));
    }
  }
  return loss;
}

std::vector<infer::ScenarioSolution> dense_solve_scenarios(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& failures, const infer::GroundTruth& truth,
    const infer::InferenceConfig& config, std::uint64_t seed) {
  Rng scenario_rng(infer::derive_seed(seed, infer::kScenarioSalt));
  std::vector<failures::FailureVector> scenarios;
  for (std::size_t s = 0; s < config.scenarios; ++s) {
    scenarios.push_back(failures.sample(scenario_rng));
  }
  std::vector<infer::ScenarioSolution> solutions;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    Rng noise_rng(infer::derive_seed(seed, infer::kNoiseSalt + s));
    const infer::Observations obs = infer::synthesize_observations(
        system, subset, truth, scenarios[s], config.noise_std, noise_rng);
    solutions.push_back(
        dense_solve_scenario(system, obs, config.model, config.solve));
  }
  return solutions;
}

infer::InferenceReport dense_run_inference(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureModel& failures, const infer::GroundTruth& truth,
    const infer::InferenceConfig& config, std::uint64_t seed) {
  const double fallback = infer::prior_estimate(config.model, config.truth);
  infer::InferenceReport report;
  for (const infer::ScenarioSolution& solution :
       dense_solve_scenarios(system, subset, failures, truth, config, seed)) {
    report.add(infer::score_scenario(solution, truth, fallback));
  }
  return report;
}

}  // namespace rnt::testkit
