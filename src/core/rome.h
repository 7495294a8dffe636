// RoMe — Robust Measurements (Algorithm 1 of the paper).
//
// Budgeted maximization of the Expected Rank: a cost-benefit greedy
// (weight = marginal ER gain / probing cost) combined with the best single
// affordable path, which by Krause & Guestrin (2005) achieves a
// (1 - 1/sqrt(e)) approximation for non-decreasing submodular ER with
// ER(empty) = 0.
//
// Implementation notes:
//  * The ER engine is pluggable: ProbBoundEr gives the paper's "ProbRoMe",
//    MonteCarloEr gives "MonteRoMe", ExactEr gives the exact (tiny-instance)
//    variant used in tests.
//  * Marginal gains along the greedy trajectory are non-increasing for all
//    engines, so we run *lazy greedy* (Minoux): a max-heap of stale weights,
//    re-evaluating only the top until it is confirmed maximal within
//    kWeightEps.  This is algorithmically identical to Algorithm 1 (same
//    selections) but orders of magnitude fewer ER evaluations.
//  * rome_lazy is the one copy of that loop.  rome() seeds it with a fresh
//    pass over every path; online::Replanner's warm re-plan seeds it with
//    the previous run's weights instead.
#pragma once

#include <cstddef>
#include <vector>

#include "core/expected_rank.h"
#include "core/selection.h"
#include "core/selectors/selector.h"
#include "tomo/cost_model.h"
#include "tomo/path_system.h"

namespace rnt::core {

/// Runs RoMe and returns the selected paths.
/// `budget` is the probing budget B; paths with PC(q) > B can never be
/// selected.  If `stats` is non-null its gain_evaluations and iterations
/// (greedy commits) are incremented.
Selection rome(const tomo::PathSystem& system, const tomo::CostModel& costs,
               double budget, const ErEngine& engine,
               SelectorStats* stats = nullptr);

/// rome() on per-path costs `cost` (CostModel::path_costs), also leaving
/// every path's last evaluated weight in `weights` (resized to the path
/// count) and the best affordable single path (path_count() if none) in
/// `best_single` — the state online::Replanner's warm re-plan resumes from.
Selection rome(const tomo::PathSystem& system, const std::vector<double>& cost,
               double budget, const ErEngine& engine, SelectorStats& stats,
               std::vector<double>& weights, std::size_t& best_single);

/// One rome_lazy heap entry: a possibly stale cost-benefit weight.
struct LazySeed {
  double weight;
  std::size_t path;
  bool operator<(const LazySeed& o) const { return weight < o.weight; }
};

/// Algorithm 1's greedy phase as an ε-tolerant lazy loop on `acc`.  Pushes
/// `seeds` in order, then pops the top, refreshes its weight against the
/// current selection (stored in `weights[path]`) and requeues it while it
/// falls more than kWeightEps below the next entry.  A confirmed top is
/// committed when its gain exceeds `min_gain` and it fits the remaining
/// budget, and dropped either way.  Paths absent from `seeds` are never
/// considered.  Returns the committed paths with objective acc.value().
Selection rome_lazy(ErAccumulator& acc, const std::vector<double>& cost,
                    double budget, const std::vector<LazySeed>& seeds,
                    double min_gain, std::vector<double>& weights,
                    SelectorStats& stats);

/// The non-lazy textbook variant of Algorithm 1 (recomputes every weight
/// every iteration): StochasticGreedySelector with a sample covering every
/// path.  The reference "lazy-greedy" is tested bitwise against.
Selection rome_eager(const tomo::PathSystem& system,
                     const tomo::CostModel& costs, double budget,
                     const ErEngine& engine, SelectorStats* stats = nullptr);

}  // namespace rnt::core
