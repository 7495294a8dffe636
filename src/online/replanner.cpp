#include "online/replanner.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/selectors/selector.h"

namespace rnt::online {
namespace {

using core::selector_detail::kWeightEps;
using core::selector_detail::weight_of;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct HeapEntry {
  double weight;
  std::size_t path;
  bool operator<(const HeapEntry& o) const { return weight < o.weight; }
};

}  // namespace

Replanner::Replanner(const tomo::PathSystem& system,
                     const tomo::CostModel& costs, ReplannerConfig config)
    : system_(system),
      config_(config),
      cost_(costs.path_costs(system)),
      last_weight_(system.path_count(), kInfinity),
      best_single_(system.path_count()) {}

core::Selection Replanner::replan(const core::ErEngine& engine, double budget,
                                  ReplanStats* stats) {
  ReplanStats local;
  ReplanStats& s = stats != nullptr ? *stats : local;
  s = ReplanStats{};
  s.warm = has_plan_;
  core::Selection result = has_plan_ ? plan_warm(engine, budget, &s)
                                     : plan_cold(engine, budget, &s);
  current_ = result;
  has_plan_ = true;
  ++plans_;
  return result;
}

void Replanner::reset() {
  has_plan_ = false;
  current_ = core::Selection{};
  std::fill(last_weight_.begin(), last_weight_.end(), kInfinity);
  best_single_ = system_.path_count();
}

/// Identical selection to core::rome (verified by test), additionally
/// recording every path's last evaluated weight and the best single path.
core::Selection Replanner::plan_cold(const core::ErEngine& engine,
                                     double budget, ReplanStats* stats) {
  const std::size_t n = system_.path_count();

  // Best single affordable path (Algorithm 1 line 1).
  const core::Selection single = core::selector_detail::best_single(
      system_, cost_, budget, engine, &stats->rome.gain_evaluations);
  best_single_ = single.paths.empty() ? n : single.paths.front();

  auto acc = engine.make_accumulator();
  core::Selection greedy;
  std::priority_queue<HeapEntry> heap;
  for (std::size_t q = 0; q < n; ++q) {
    const double g = acc->gain(q);
    ++stats->rome.gain_evaluations;
    last_weight_[q] = weight_of(g, cost_[q]);
    heap.push({last_weight_[q], q});
  }

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const double g = acc->gain(top.path);
    ++stats->rome.gain_evaluations;
    const double w = weight_of(g, cost_[top.path]);
    last_weight_[top.path] = w;
    if (!heap.empty() && w + kWeightEps < heap.top().weight) {
      heap.push({w, top.path});
      continue;
    }
    if (greedy.cost + cost_[top.path] <= budget) {
      acc->add(top.path);
      greedy.paths.push_back(top.path);
      greedy.cost += cost_[top.path];
      ++stats->rome.iterations;
    }
  }
  greedy.objective = acc->value();

  return greedy.objective >= single.objective ? greedy : single;
}

core::Selection Replanner::plan_warm(const core::ErEngine& engine,
                                     double budget, ReplanStats* stats) {
  const std::size_t n = system_.path_count();
  auto acc = engine.make_accumulator();
  core::Selection greedy;

  // 1. Seed the lazy heap with every path's last evaluated weight,
  // inflated by the slack so weights that grew since the previous run
  // still surface in time.  No initial evaluation pass: the stale seeds
  // only order the first pops, and the loop re-measures before committing
  // — previous paths compete on fresh gains like everyone else, so the
  // selection can both keep and drop them.
  std::priority_queue<HeapEntry> heap;
  for (std::size_t q = 0; q < n; ++q) {
    if (cost_[q] > budget) continue;  // Can never commit; skip its evals.
    heap.push({last_weight_[q] * (1.0 + config_.weight_slack), q});
  }

  // 2. Standard lazy loop; every pop re-evaluates against the current
  // engine before committing.
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const double g = acc->gain(top.path);
    ++stats->rome.gain_evaluations;
    const double w = weight_of(g, cost_[top.path]);
    last_weight_[top.path] = w;
    if (!heap.empty() && w + kWeightEps < heap.top().weight) {
      heap.push({w, top.path});
      continue;
    }
    if (g > config_.gain_tolerance &&
        greedy.cost + cost_[top.path] <= budget) {
      acc->add(top.path);
      greedy.paths.push_back(top.path);
      greedy.cost += cost_[top.path];
      ++stats->rome.iterations;
      if (std::find(current_.paths.begin(), current_.paths.end(),
                    top.path) != current_.paths.end()) {
        ++stats->reused;
      }
    }
  }
  greedy.objective = acc->value();

  // 3. Algorithm 1 fallback from the remembered best single path; a full
  // re-scan only when it is no longer affordable (e.g. the budget shrank).
  core::Selection single;
  if (best_single_ < n && cost_[best_single_] <= budget) {
    auto single_acc = engine.make_accumulator();
    const double er = single_acc->gain(best_single_);
    ++stats->rome.gain_evaluations;
    single.paths = {best_single_};
    single.cost = cost_[best_single_];
    single.objective = er;
  } else {
    single = core::selector_detail::best_single(
        system_, cost_, budget, engine, &stats->rome.gain_evaluations);
    best_single_ = single.paths.empty() ? n : single.paths.front();
  }

  return greedy.objective >= single.objective ? greedy : single;
}

}  // namespace rnt::online
