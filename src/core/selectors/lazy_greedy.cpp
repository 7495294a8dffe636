#include "core/selectors/lazy_greedy.h"

#include <algorithm>
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
  auto acc = engine.make_accumulator();
  Selection greedy;
  std::uint64_t version = 0;
  const auto gain_of = [&](std::size_t path) {
    if (stats != nullptr) ++stats->gain_evaluations;
    return acc->gain(path);
  };
  // The budget only shrinks as paths commit, so a path that does not fit
  // now never fits again: it is dropped from the heap unrefreshed.
  const auto fits = [&](std::size_t path) {
    return greedy.cost + cost[path] <= budget;
  };

  // One scan on the empty selection seeds the heap and answers line 1 of
  // Algorithm 1: its gains are ER({q}), exactly what best_single()
  // computes, so the best single affordable path is picked here with the
  // same ascending strict-`>` rule.  Unaffordable paths are neither
  // evaluated nor pushed.
  Selection single;
  double single_er = -1.0;
  std::priority_queue<Entry> heap;
  for (std::size_t q = 0; q < system.path_count(); ++q) {
    if (!fits(q)) continue;
    const double g = gain_of(q);
    if (g > single_er) {
      single_er = g;
      single.paths = {q};
      single.cost = cost[q];
      single.objective = g;
    }
    heap.push({selector_detail::weight_of(g, cost[q]), q, version});
  }

  const auto commit = [&](std::size_t path) {
    acc->add(path);
    greedy.paths.push_back(path);
    greedy.cost += cost[path];
    ++version;
    if (stats != nullptr) ++stats->iterations;
  };
  const auto refresh = [&](Entry& e) {
    e.weight = selector_detail::weight_of(gain_of(e.path), cost[e.path]);
    e.version = version;
  };
  std::vector<Entry> window;
  while (!heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (!fits(top.path)) continue;
    if (top.version != version) {
      refresh(top);
      heap.push(top);
      continue;
    }
    // The top is fresh; drain the slack window beneath it, dropping what
    // no longer fits and refreshing any stale entry left — those are the
    // only candidates whose true weight could still reach the top's.
    window.clear();
    bool refreshed_any = false;
    const double floor = top.weight - slack_of(top.weight);
    while (!heap.empty() && heap.top().weight >= floor) {
      Entry f = heap.top();
      heap.pop();
      if (!fits(f.path)) continue;
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
    // Every other fitting candidate is now either fresh and ordered
    // behind the top (lower weight, or equal weight at a higher index)
    // or stale below the noise window, so top.path is exactly the
    // fitting path rome_eager's full scan would commit next (its scan
    // drops the unaffordable argmaxes ahead of it one round at a time).
    commit(top.path);
    if (top.weight == 0.0) break;
  }

  // The zero-gain tail.  A fresh top of weight exactly 0 just committed,
  // so every fitting entry left is fresh at weight <= 0 and sits inside
  // the next slack window: from here the heap would refresh every fitting
  // entry once per commit anyway.  A scan in path order does the same
  // gain calls without the heap, and its strict `>` picks the entry the
  // heap pops first (highest weight, lowest index on a tie).
  std::vector<std::size_t> rest;
  rest.reserve(heap.size());
  for (; !heap.empty(); heap.pop()) rest.push_back(heap.top().path);
  std::sort(rest.begin(), rest.end());
  while (!rest.empty()) {
    std::size_t kept = 0;  // Fitting paths, compacted to the front.
    std::size_t best = 0;
    double best_weight = 0.0;
    for (const std::size_t q : rest) {
      if (!fits(q)) continue;
      const double w = selector_detail::weight_of(gain_of(q), cost[q]);
      if (kept == 0 || w > best_weight) {
        best = kept;
        best_weight = w;
      }
      rest[kept++] = q;
    }
    rest.resize(kept);
    if (rest.empty()) break;
    const std::size_t path = rest[best];
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(best));
    commit(path);
  }
  greedy.objective = acc->value();

  return greedy.objective >= single.objective ? greedy : single;
}

}  // namespace rnt::core
