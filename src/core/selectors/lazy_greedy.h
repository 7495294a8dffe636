// CELF lazy greedy (Leskovec et al. 2007) with exact tie-breaking.
//
// Algorithm 1's textbook loop (rome_eager) recomputes every remaining
// path's marginal gain each round.  Submodularity makes that mostly
// wasted work: a gain computed against an older selection only
// overestimates the current one, so cached weights are upper bounds.
// This selector keeps one version-stamped entry per path in a max-heap;
// a popped entry whose stamp is current is provably the true argmax and
// is committed or dropped without touching any other candidate.
//
// Unlike the production `core::rome` heap (which requeues within a
// kWeightEps tolerance and breaks weight ties arbitrarily), the heap
// here compares weights exactly, breaks ties toward the lowest path
// index — precisely the winner rome_eager's ascending strict-`>` scan
// finds — and re-validates the narrow noise window beneath a fresh top
// before trusting it (float rounding can break exact submodularity by
// an ulp), so the selection sequence, the Selection cost/objective, and
// the returned floats are bitwise identical to rome_eager's on every
// engine, at a fraction of the gain evaluations.
//
// Two cuts skip work whose outcome is already fixed.  The heap is seeded
// by one scan of gains on the empty selection, and that scan also picks
// Algorithm 1's best single path, so no second accumulator recomputes
// the same ER({q}) values.  And a path that no longer fits the leftover
// budget is dropped when it is popped, whether as the heap top or from
// the slack window, without refreshing its gain: the budget only
// shrinks, so it never fits again, and the argmax among fitting paths —
// the only paths eager's scan can commit — does not depend on it.
//
// The zero-gain tail leaves the heap.  Once a fresh top of weight exactly
// 0 commits, every fitting entry left is fresh at weight <= 0, so each
// later commit's slack window (floor -1e-9) holds them all and the heap
// refreshes every fitting entry once per commit: the lazy bound has
// nothing left to skip.  From there the loop scans the remaining paths in
// index order once per commit instead, dropping those that no longer fit,
// refreshing the rest (the same gain calls the heap makes) and committing
// the first maximum under strict `>`.  Selection, cost, objective and
// gain_evaluations are the heap's.  A refreshed weight can come back
// above 0 in the tail only through the float noise slack_of() allows;
// the scan then still commits the exact argmax, as eager does, and only
// then can its gain count differ from the heap's.
#pragma once

#include "core/selectors/selector.h"

namespace rnt::core {

class LazyGreedySelector final : public Selector {
 public:
  Selection select(const tomo::PathSystem& system, const tomo::CostModel& costs,
                   double budget, const ErEngine& engine,
                   SelectorStats* stats = nullptr) const override;
  std::string name() const override { return "lazy-greedy"; }
};

}  // namespace rnt::core
