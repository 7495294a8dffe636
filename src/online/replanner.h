// Warm-start RoMe: re-select the probing basis after a distribution
// update, reusing the previous run's work.
//
// A cold core::rome run spends ~3N gain evaluations on an N-path system:
// one full pass to find the best single affordable path, one full pass to
// populate the lazy-greedy heap, and at least one re-evaluation per path
// in the lazy loop.  Between two re-plans the failure distribution moves
// only a little (that is exactly what the drift detector guarantees), so
// the previous run's weight structure is nearly right.  The warm re-plan:
//
//  1. seeds the lazy heap with every affordable path's last evaluated
//     cost-benefit weight, inflated by 1.5x — stale priorities from the
//     previous run stand in for the fresh initial pass (0 evaluations).
//     Previous-selection paths get no special treatment: they compete on
//     fresh gains like everyone else, so the selection can both keep and
//     drop them as the distribution moves;
//  2. runs core::rome_lazy, the same loop a cold core::rome run uses,
//     which re-evaluates every popped path against the *current* engine
//     before committing, so selected paths are always justified by fresh
//     gains (and paths whose fresh gain is at most 1e-9 are dropped
//     rather than committed);
//  3. re-scores the remembered best single path (1 evaluation) instead of
//     re-scanning all N for the Algorithm 1 fallback.
//
// Stale seeds make the lazy "confirmed maximal" check approximate: a path
// whose true weight grew by more than the slack factor can be considered
// late.  That trades the exact greedy order for ~2-3x fewer evaluations —
// the ext_adaptive bench measures both the saving and the (empirically
// negligible) objective gap against a cold re-selection.
#pragma once

#include <cstddef>
#include <vector>

#include "core/expected_rank.h"
#include "core/rome.h"
#include "core/selection.h"
#include "tomo/cost_model.h"
#include "tomo/path_system.h"

namespace rnt::online {

/// Counters describing one re-plan.
struct ReplanStats {
  core::SelectorStats rome;  ///< Gain evaluations and committed iterations.
  std::size_t reused = 0;    ///< Selected paths also in the previous plan.
  bool warm = false;         ///< False for the first (cold) plan.
};

/// Stateful RoMe wrapper: the first plan is a core::rome run that also
/// keeps every path's weight and the best single path; subsequent plans
/// warm-start from those.  Not thread-safe; callers serialize (the
/// service wraps one Replanner per pipeline session behind a mutex).
class Replanner {
 public:
  Replanner(const tomo::PathSystem& system, const tomo::CostModel& costs);

  /// Plans against `engine` within `budget`.  Warm when a previous plan
  /// exists (see header comment), cold otherwise.
  core::Selection replan(const core::ErEngine& engine, double budget,
                         ReplanStats* stats = nullptr);

  /// Forgets the previous plan; the next replan() runs cold.
  void reset();

  /// The most recent selection (empty before the first replan()).
  const core::Selection& current() const { return current_; }

  /// Number of replan() calls so far.
  std::size_t plans() const { return plans_; }

 private:
  core::Selection plan_warm(const core::ErEngine& engine, double budget,
                            ReplanStats& stats);

  const tomo::PathSystem& system_;
  std::vector<double> cost_;         ///< Per-path probing cost (fixed).
  std::vector<double> last_weight_;  ///< Weight when last evaluated.
  core::Selection current_;
  std::size_t best_single_ = 0;  ///< Best affordable single path.
  bool has_plan_ = false;
  std::size_t plans_ = 0;
};

}  // namespace rnt::online
