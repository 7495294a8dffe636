// Stochastic greedy (Mirzasoleiman et al. 2015) under the per-path
// cost model.
//
// Each round evaluates marginal gains only on a seeded random subsample
// of the remaining candidates and commits the best cost-benefit weight
// among them, cutting the gain evaluations per round from O(n) to
// O(sample).  In the cardinality-constrained setting a sample of
// (n/k)·log(1/eps) preserves a (1 - 1/e - eps) guarantee in
// expectation; under a knapsack budget the guarantee is heuristic, so
// the testkit's optimizer-bounds check exercises this selector at full
// sample size (where it degenerates to the eager scan exactly) and
// asserts only determinism and budget feasibility for small samples.
//
// All randomness comes from the constructor seed via the repo's
// platform-pinned Rng, so a (seed, instance, budget, engine) tuple
// always reproduces the same selection bit for bit.
#pragma once

#include <cstdint>

#include "core/selectors/selector.h"

namespace rnt::core {

class StochasticGreedySelector final : public Selector {
 public:
  /// `sample_size` candidates are drawn per round; 0 picks
  /// max(3, n/4) for an n-path instance.  A sample covering all
  /// remaining candidates is the textbook scan; rome_eager is this
  /// selector with sample_size = n.
  explicit StochasticGreedySelector(std::uint64_t seed = 1,
                                    std::size_t sample_size = 0)
      : seed_(seed), sample_size_(sample_size) {}

  Selection select(const tomo::PathSystem& system, const tomo::CostModel& costs,
                   double budget, const ErEngine& engine,
                   SelectorStats* stats = nullptr) const override;
  std::string name() const override { return "stochastic-greedy"; }

 private:
  std::uint64_t seed_;
  std::size_t sample_size_;
};

}  // namespace rnt::core
