#include "core/expected_rank.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/gain_memo.h"

namespace rnt::core {

namespace {

/// Accumulator for scenario-mixture engines: one incremental basis per
/// scenario; a path's marginal gain is the probability-weighted count of
/// scenarios where it both survives and increases the surviving rank.
class ScenarioAccumulator : public ErAccumulator {
 public:
  ScenarioAccumulator(const tomo::PathSystem& system,
                      const std::vector<failures::FailureVector>& scenarios,
                      const std::vector<double>& weights)
      : system_(system),
        scenarios_(scenarios),
        weights_(weights),
        memo_(system.path_count()) {
    bases_.reserve(scenarios_.size());
    for (std::size_t s = 0; s < scenarios_.size(); ++s) {
      // Rank-only bases: no dependency tracking needed per scenario.
      bases_.emplace_back(system_.link_count(), linalg::kDefaultTolerance,
                          /*track_combinations=*/false);
    }
  }

  double gain(std::size_t path) const override {
    return memo_.get(path, [&] {
      double g = 0.0;
      const linalg::UnitRow row = system_.unit_row(path);
      for (std::size_t s = 0; s < scenarios_.size(); ++s) {
        if (!system_.path_survives(path, scenarios_[s])) continue;
        if (bases_[s].is_independent(row)) g += weights_[s];
      }
      return g;
    });
  }

  void add(std::size_t path) override {
    const linalg::UnitRow row = system_.unit_row(path);
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
  const std::vector<failures::FailureVector>& scenarios_;
  const std::vector<double>& weights_;
  std::vector<linalg::IncrementalBasis> bases_;
  GainMemo memo_;
  double value_ = 0.0;
};

}  // namespace

ScenarioErEngine::ScenarioErEngine(
    const tomo::PathSystem& system,
    std::vector<failures::FailureVector> scenarios, std::vector<double> weights,
    std::string name)
    : system_(system),
      scenarios_(std::move(scenarios)),
      weights_(std::move(weights)),
      name_(std::move(name)) {
  if (scenarios_.size() != weights_.size()) {
    throw std::invalid_argument("ScenarioErEngine: weight count mismatch");
  }
  for (const auto& v : scenarios_) {
    if (v.size() != system_.link_count()) {
      throw std::invalid_argument("ScenarioErEngine: scenario size mismatch");
    }
  }
}

double ScenarioErEngine::chunk_sum(const std::vector<std::size_t>& subset,
                                   std::size_t begin, std::size_t end) const {
  double acc = 0.0;
  for (std::size_t s = begin; s < end; ++s) {
    if (weights_[s] == 0.0) continue;
    acc += weights_[s] * static_cast<double>(
                             system_.surviving_rank(subset, scenarios_[s]));
  }
  return acc;
}

double ScenarioErEngine::evaluate(
    const std::vector<std::size_t>& subset) const {
  const std::size_t n = scenarios_.size();
  double er = 0.0;
  for (std::size_t begin = 0; begin < n; begin += kEvalChunk) {
    er += chunk_sum(subset, begin, std::min(begin + kEvalChunk, n));
  }
  return er;
}

std::unique_ptr<ErAccumulator> ScenarioErEngine::make_accumulator() const {
  return std::make_unique<ScenarioAccumulator>(system_, scenarios_, weights_);
}

double ScenarioErEngine::evaluate_parallel(
    const std::vector<std::size_t>& subset, std::size_t threads) const {
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  const std::size_t n = scenarios_.size();
  if (n == 0) return 0.0;
  const std::size_t chunks = (n + kEvalChunk - 1) / kEvalChunk;
  threads = std::min(threads, chunks);

  // Workers claim fixed-width chunks off a shared counter and write each
  // partial into its chunk slot; the single-threaded reduction below then
  // adds the slots in chunk order.  The chunk grid does not depend on the
  // worker count, so the result is bitwise identical to serial evaluate()
  // for every `threads` value.
  std::vector<double> partial(chunks, 0.0);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t begin = c * kEvalChunk;
      partial[c] = chunk_sum(subset, begin, std::min(begin + kEvalChunk, n));
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work);
  work();
  for (std::thread& w : workers) w.join();

  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

ExactEr::ExactEr(const tomo::PathSystem& system,
                 const failures::FailureModel& model, std::size_t max_links)
    : ScenarioErEngine(system, {}, {}, "ExactER") {
  if (model.link_count() != system.link_count()) {
    throw std::invalid_argument("ExactEr: model/system link count mismatch");
  }
  failures::enumerate_scenarios(
      model,
      [this](const failures::FailureVector& v, double p) {
        scenarios_.push_back(v);
        weights_.push_back(p);
      },
      max_links);
}

MonteCarloEr::MonteCarloEr(const tomo::PathSystem& system,
                           const failures::FailureModel& model,
                           std::size_t runs, Rng& rng)
    : ScenarioErEngine(system, failures::sample_scenarios(model, runs, rng),
                       std::vector<double>(runs, 1.0 / static_cast<double>(runs)),
                       "MC-" + std::to_string(runs)) {
  if (runs == 0) {
    throw std::invalid_argument("MonteCarloEr: need at least one run");
  }
  if (model.link_count() != system.link_count()) {
    throw std::invalid_argument("MonteCarloEr: link count mismatch");
  }
}

// ---------------------------------------------------------------------------
// ProbBound (Eq. 6/7)
// ---------------------------------------------------------------------------

namespace {

/// Shared greedy-scan state for the bound: a growing independent basis with
/// the path id of each basis member, so dependent paths can resolve their
/// support sets to concrete link sets.
class ProbBoundState {
 public:
  ProbBoundState(const tomo::PathSystem& system,
                 const failures::FailureModel& model,
                 const std::vector<double>& ea)
      : system_(system), model_(model), ea_(ea),
        basis_(system.link_count()) {}

  /// Marginal contribution of `path` to the bound, without committing.
  double contribution(std::size_t path) const {
    const auto reduction = basis_.reduce(system_.unit_row(path));
    if (reduction.independent) return ea_[path];
    return dependent_contribution(path, reduction.support);
  }

  /// Commits `path`; returns its contribution.
  double add(std::size_t path) {
    const auto reduction = basis_.add_with_reduction(system_.unit_row(path));
    if (reduction.independent) {
      basis_paths_.push_back(path);
      return ea_[path];
    }
    return dependent_contribution(path, reduction.support);
  }

 private:
  /// E[D_q] of Eq. 6: EA(q) * (1 - prod over links of the support paths
  /// that are not links of q of (1 - p_l)).
  double dependent_contribution(std::size_t path,
                                const std::vector<std::size_t>& support) const {
    const auto& q_links = system_.path(path).links;
    // Collect distinct links of the support paths, excluding q's own links.
    std::vector<graph::EdgeId> extra;
    for (std::size_t basis_index : support) {
      const std::size_t member = basis_paths_.at(basis_index);
      for (graph::EdgeId l : system_.path(member).links) {
        if (!std::binary_search(q_links.begin(), q_links.end(), l)) {
          extra.push_back(l);
        }
      }
    }
    std::sort(extra.begin(), extra.end());
    extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
    double all_up = 1.0;
    for (graph::EdgeId l : extra) {
      all_up *= 1.0 - model_.probability(l);
    }
    return ea_[path] * (1.0 - all_up);
  }

  const tomo::PathSystem& system_;
  const failures::FailureModel& model_;
  const std::vector<double>& ea_;
  linalg::IncrementalBasis basis_;
  std::vector<std::size_t> basis_paths_;  ///< path id of basis member i.
};

class ProbBoundAccumulator : public ErAccumulator {
 public:
  ProbBoundAccumulator(const tomo::PathSystem& system,
                       const failures::FailureModel& model,
                       const std::vector<double>& ea)
      : state_(system, model, ea) {}

  double gain(std::size_t path) const override {
    return state_.contribution(path);
  }
  void add(std::size_t path) override { value_ += state_.add(path); }
  double value() const override { return value_; }

 private:
  ProbBoundState state_;
  double value_ = 0.0;
};

}  // namespace

ProbBoundEr::ProbBoundEr(const tomo::PathSystem& system,
                         const failures::FailureModel& model)
    : system_(system), model_(model) {
  if (model.link_count() != system.link_count()) {
    throw std::invalid_argument("ProbBoundEr: link count mismatch");
  }
  ea_.reserve(system.path_count());
  for (std::size_t i = 0; i < system.path_count(); ++i) {
    ea_.push_back(system.expected_availability(i, model));
  }
}

double ProbBoundEr::evaluate(const std::vector<std::size_t>& subset) const {
  ProbBoundState state(system_, model_, ea_);
  double total = 0.0;
  for (std::size_t path : subset) {
    total += state.add(path);
  }
  return total;
}

std::unique_ptr<ErAccumulator> ProbBoundEr::make_accumulator() const {
  return std::make_unique<ProbBoundAccumulator>(system_, model_, ea_);
}

// ---------------------------------------------------------------------------
// IndependentPathEr (Eq. 11) — the LSR reward surrogate
// ---------------------------------------------------------------------------

namespace {

class IndependentPathState {
 public:
  IndependentPathState(const tomo::PathSystem& system,
                       const std::vector<double>& theta)
      : system_(system), theta_(theta), basis_(system.link_count()) {}

  double contribution(std::size_t path) const {
    const auto reduction = basis_.reduce(system_.unit_row(path));
    if (reduction.independent) return clamp01(theta_[path]);
    return dependent_contribution(path, reduction.support);
  }

  double add(std::size_t path) {
    const auto reduction = basis_.add_with_reduction(system_.unit_row(path));
    if (reduction.independent) {
      basis_paths_.push_back(path);
      return clamp01(theta_[path]);
    }
    return dependent_contribution(path, reduction.support);
  }

 private:
  static double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

  /// theta_q * (1 - prod_{j in R_q} theta_j): q adds rank only when it is
  /// up and at least one of its supporting paths is down (availabilities
  /// treated as independent, per Section V).
  double dependent_contribution(std::size_t path,
                                const std::vector<std::size_t>& support) const {
    double all_up = 1.0;
    for (std::size_t basis_index : support) {
      all_up *= clamp01(theta_[basis_paths_.at(basis_index)]);
    }
    return clamp01(theta_[path]) * (1.0 - all_up);
  }

  const tomo::PathSystem& system_;
  const std::vector<double>& theta_;
  linalg::IncrementalBasis basis_;
  std::vector<std::size_t> basis_paths_;
};

class IndependentPathAccumulator : public ErAccumulator {
 public:
  IndependentPathAccumulator(const tomo::PathSystem& system,
                             const std::vector<double>& theta)
      : state_(system, theta) {}

  double gain(std::size_t path) const override {
    return state_.contribution(path);
  }
  void add(std::size_t path) override { value_ += state_.add(path); }
  double value() const override { return value_; }

 private:
  IndependentPathState state_;
  double value_ = 0.0;
};

}  // namespace

IndependentPathEr::IndependentPathEr(const tomo::PathSystem& system,
                                     std::vector<double> theta)
    : system_(system), theta_(std::move(theta)) {
  if (theta_.size() != system.path_count()) {
    throw std::invalid_argument("IndependentPathEr: theta size mismatch");
  }
}

double IndependentPathEr::clamped_theta(std::size_t path) const {
  return std::clamp(theta_.at(path), 0.0, 1.0);
}

double IndependentPathEr::evaluate(
    const std::vector<std::size_t>& subset) const {
  IndependentPathState state(system_, theta_);
  double total = 0.0;
  for (std::size_t path : subset) {
    total += state.add(path);
  }
  return total;
}

std::unique_ptr<ErAccumulator> IndependentPathEr::make_accumulator() const {
  return std::make_unique<IndependentPathAccumulator>(system_, theta_);
}

}  // namespace rnt::core
