#include "core/selectors/selector.h"

#include <stdexcept>

#include "core/rome.h"
#include "core/selectors/branch_and_bound.h"
#include "core/selectors/lazy_greedy.h"
#include "core/selectors/local_search.h"
#include "core/selectors/stochastic_greedy.h"

namespace rnt::core {

namespace selector_detail {

Selection best_single(const tomo::PathSystem& system,
                      const std::vector<double>& costs, double budget,
                      const ErEngine& engine, std::size_t* gain_evaluations) {
  auto acc = engine.make_accumulator();
  Selection best;
  double best_er = -1.0;
  for (std::size_t q = 0; q < system.path_count(); ++q) {
    if (costs[q] > budget) continue;
    const double er = acc->gain(q);
    if (gain_evaluations != nullptr) ++*gain_evaluations;
    if (er > best_er) {
      best_er = er;
      best.paths = {q};
      best.cost = costs[q];
      best.objective = er;
    }
  }
  return best;
}

}  // namespace selector_detail

namespace {

/// Thin adapters putting the two rome.cpp entry points behind the
/// interface, so callers can sweep the whole zoo uniformly.
class RomeSelector final : public Selector {
 public:
  Selection select(const tomo::PathSystem& system, const tomo::CostModel& costs,
                   double budget, const ErEngine& engine,
                   SelectorStats* stats) const override {
    return rome(system, costs, budget, engine, stats);
  }
  std::string name() const override { return "rome"; }
};

class EagerRomeSelector final : public Selector {
 public:
  Selection select(const tomo::PathSystem& system, const tomo::CostModel& costs,
                   double budget, const ErEngine& engine,
                   SelectorStats* stats) const override {
    return rome_eager(system, costs, budget, engine, stats);
  }
  std::string name() const override { return "eager"; }
};

}  // namespace

std::vector<std::string> selector_names() {
  return {"rome",         "eager",        "lazy-greedy",
          "stochastic-greedy", "local-search", "branch-and-bound"};
}

std::unique_ptr<Selector> make_selector(const std::string& name,
                                        const SelectorOptions& options) {
  if (name == "rome") return std::make_unique<RomeSelector>();
  if (name == "eager") return std::make_unique<EagerRomeSelector>();
  if (name == "lazy-greedy") return std::make_unique<LazyGreedySelector>();
  if (name == "stochastic-greedy") {
    return std::make_unique<StochasticGreedySelector>(options.seed,
                                                      options.sample_size);
  }
  if (name == "local-search") {
    return std::make_unique<LocalSearchSelector>(
        std::make_unique<LazyGreedySelector>());
  }
  if (name == "branch-and-bound") {
    BranchAndBoundOptions bb;
    bb.bound_engine = options.bound_engine;
    return std::make_unique<BranchAndBoundSelector>(bb);
  }
  throw std::invalid_argument(
      "unknown selector (want rome, eager, lazy-greedy, stochastic-greedy, "
      "local-search or branch-and-bound): " +
      name);
}

}  // namespace rnt::core
