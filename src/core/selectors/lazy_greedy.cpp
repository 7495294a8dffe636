#include "core/selectors/lazy_greedy.h"

#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

namespace rnt::core {

namespace {

// Heap entry carrying the selection version its weight was computed
// against.  Ordering: higher weight first; equal weights pop the lowest
// path index first, matching rome_eager's ascending strict-`>` scan.
struct Entry {
  double weight;
  std::size_t path;
  std::uint64_t version;
  bool operator<(const Entry& o) const {
    if (weight != o.weight) return weight < o.weight;
    return path > o.path;
  }
};

// Mathematically gains are non-increasing along the greedy trajectory,
// so a cached weight upper-bounds the fresh one — but the engines
// compute ER with floating point, where a later gain can exceed an
// earlier one by rounding noise.  A stale entry can therefore beat a
// fresh top only if its cached weight sits within that noise of the
// top, so refreshing the window below the top at this slack (orders of
// magnitude above the ~1e-12-relative evaluation error) restores the
// exact argmax.
double slack_of(double weight) {
  return 1e-9 * std::max(1.0, std::abs(weight));
}

}  // namespace

Selection LazyGreedySelector::select(const tomo::PathSystem& system,
                                     const tomo::CostModel& costs,
                                     double budget, const ErEngine& engine,
                                     SelectorStats* stats) const {
  const std::vector<double> cost = costs.path_costs(system);
  Selection single = selector_detail::best_single(
      system, cost, budget, engine,
      stats != nullptr ? &stats->gain_evaluations : nullptr);

  auto acc = engine.make_accumulator();
  Selection greedy;
  std::uint64_t version = 0;

  const auto refresh = [&](Entry& e) {
    const double g = acc->gain(e.path);
    if (stats != nullptr) ++stats->gain_evaluations;
    e.weight = selector_detail::weight_of(g, cost[e.path]);
    e.version = version;
  };

  std::priority_queue<Entry> heap;
  for (std::size_t q = 0; q < system.path_count(); ++q) {
    Entry e{0.0, q, version};
    refresh(e);
    heap.push(e);
  }

  std::vector<Entry> window;
  while (!heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.version != version) {
      refresh(top);
      heap.push(top);
      continue;
    }
    // The top is fresh; drain the slack window beneath it, refreshing
    // any stale entry there — those are the only candidates whose true
    // weight could still reach the top's.
    window.clear();
    bool refreshed_any = false;
    const double floor = top.weight - slack_of(top.weight);
    while (!heap.empty() && heap.top().weight >= floor) {
      Entry f = heap.top();
      heap.pop();
      if (f.version != version) {
        refresh(f);
        refreshed_any = true;
      }
      window.push_back(f);
    }
    for (const Entry& f : window) heap.push(f);
    if (refreshed_any) {
      heap.push(top);  // Refreshes may have reordered the window; re-pop.
      continue;
    }
    // Every other candidate is now either fresh and ordered behind the
    // top (lower weight, or equal weight at a higher index) or stale
    // below the noise window, so top.path is exactly the path
    // rome_eager's full scan would pick.  Algorithm 1: commit if it
    // fits the budget, drop it either way.
    if (greedy.cost + cost[top.path] <= budget) {
      acc->add(top.path);
      greedy.paths.push_back(top.path);
      greedy.cost += cost[top.path];
      ++version;
      if (stats != nullptr) ++stats->iterations;
    }
  }
  greedy.objective = acc->value();

  return greedy.objective >= single.objective ? greedy : single;
}

}  // namespace rnt::core
