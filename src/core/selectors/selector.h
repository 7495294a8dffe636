// The optimizer zoo's common interface (ROADMAP item 3).
//
// A Selector solves the paper's budgeted selection problem — pick a path
// subset R maximizing the engine's ER objective subject to the per-path
// probing-cost budget — and reports how much work it did.  RoMe's
// cost-benefit greedy (rome.h) is one point on the quality/speed
// frontier; the implementations behind this interface trade gain
// evaluations, wall-clock and optimality against each other:
//
//  * "rome"              — the production lazy (Minoux) greedy of rome.cpp;
//                          online::Replanner runs the same loop.
//  * "eager"             — the textbook Algorithm 1 (rome_eager): the
//                          stochastic-greedy scan with a full sample.
//  * "lazy-greedy"       — CELF: stale upper bounds in a priority queue
//                          with exact tie-breaking, bitwise-identical
//                          selections to "eager" at a fraction of the
//                          gain evaluations (lazy_greedy.h).
//  * "stochastic-greedy" — seeded subsample per round
//                          (stochastic_greedy.h).
//  * "local-search"      — pairwise swap polish on a base selection
//                          (local_search.h).
//  * "branch-and-bound"  — exact optimum with admissible pruning for
//                          small instances (branch_and_bound.h); the
//                          testkit's optimality oracle.
//
// Every Selector runs against any ErEngine (scenario, kernel, ProbBound,
// exhaustive-table adapters in the testkit), so engine choice composes
// freely with optimizer choice in the CLI and service.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/expected_rank.h"
#include "core/selection.h"
#include "tomo/cost_model.h"
#include "tomo/path_system.h"

namespace rnt::core {

/// Work counters for one select() run.  Which fields move depends on the
/// selector: greedy variants count gain() calls, local search and
/// branch-and-bound count whole-subset evaluate() calls and search nodes.
struct SelectorStats {
  std::size_t gain_evaluations = 0;   ///< ErAccumulator::gain calls.
  std::size_t evaluate_calls = 0;     ///< Whole-subset objective evaluates.
  std::size_t bound_evaluations = 0;  ///< Pruning-bound evaluates (B&B).
  std::size_t iterations = 0;         ///< Commits / accepted improvements.
  std::size_t nodes_explored = 0;     ///< Search nodes expanded (B&B).
  std::size_t nodes_pruned = 0;       ///< Subtrees cut by the bound (B&B).
};

/// A budgeted path-selection strategy over a pluggable ER engine.
class Selector {
 public:
  virtual ~Selector() = default;

  /// Selects a path subset with total probing cost within `budget`,
  /// maximizing the engine's objective.  Deterministic given the inputs
  /// (stochastic selectors derive all randomness from their constructor
  /// seed).  If `stats` is non-null it receives the run's work counters
  /// (added to whatever the caller left in it).
  virtual Selection select(const tomo::PathSystem& system,
                           const tomo::CostModel& costs, double budget,
                           const ErEngine& engine,
                           SelectorStats* stats = nullptr) const = 0;

  /// The registry name ("lazy-greedy", ...).
  virtual std::string name() const = 0;
};

/// Knobs consumed by make_selector(); each selector reads only its own.
/// "local-search" and "branch-and-bound" otherwise run with the defaults
/// of LocalSearchSelector and BranchAndBoundOptions; construct them
/// directly to change their pass or size caps.
struct SelectorOptions {
  /// Seed for "stochastic-greedy" (per-round subsampling).
  std::uint64_t seed = 1;
  /// Candidates sampled per round by "stochastic-greedy"; 0 picks
  /// max(3, n/4).
  std::size_t sample_size = 0;
  /// "branch-and-bound": admissible pruning bound — must dominate the
  /// objective engine on every subset (ProbBoundEr dominates exact ER,
  /// Eq. 7).  Null falls back to the monotone objective engine itself,
  /// which is always admissible.  Not owned; must outlive the selector.
  const ErEngine* bound_engine = nullptr;
};

/// Registry names, in documentation order.
std::vector<std::string> selector_names();

/// Builds a selector by registry name; throws std::invalid_argument on an
/// unknown name.
std::unique_ptr<Selector> make_selector(const std::string& name,
                                        const SelectorOptions& options = {});

namespace selector_detail {

/// Floor on a path's cost in the cost-benefit weight, and the staleness
/// tolerance of rome_lazy's heap.
inline constexpr double kWeightEps = 1e-12;

/// Cost-benefit weight shared by every greedy loop (rome_lazy, the eager
/// scan and CELF), so they compare bitwise.  Free paths get an
/// effectively infinite weight, so they are always taken first (they
/// cannot violate the budget).  Inline: it is called once per gain.
inline double weight_of(double gain, double cost) {
  return gain / std::max(cost, kWeightEps);
}

/// The best single affordable path (line 1 of Algorithm 1), evaluated with
/// gains on the empty selection, which equal ER({q}) for every engine.
/// Adds its gain calls to `*gain_evaluations` when non-null.
Selection best_single(const tomo::PathSystem& system,
                      const std::vector<double>& costs, double budget,
                      const ErEngine& engine, std::size_t* gain_evaluations);

}  // namespace selector_detail

}  // namespace rnt::core
