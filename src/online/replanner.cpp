#include "online/replanner.h"

#include <algorithm>

namespace rnt::online {
namespace {

/// Stale heap seeds are inflated by (1 + kWeightSlack) so moderately grown
/// weights still surface in time.
constexpr double kWeightSlack = 0.5;

/// Warm re-plans commit a path only when its fresh marginal gain exceeds
/// this tolerance (cold runs mirror core::rome exactly).
constexpr double kGainTolerance = 1e-9;

}  // namespace

Replanner::Replanner(const tomo::PathSystem& system,
                     const tomo::CostModel& costs)
    : system_(system), cost_(costs.path_costs(system)) {}

core::Selection Replanner::replan(const core::ErEngine& engine, double budget,
                                  ReplanStats* stats) {
  ReplanStats local;
  ReplanStats& s = stats != nullptr ? *stats : local;
  s = ReplanStats{};
  s.warm = has_plan_;
  core::Selection result =
      has_plan_ ? plan_warm(engine, budget, s)
                : core::rome(system_, cost_, budget, engine, s.rome,
                             last_weight_, best_single_);
  current_ = result;
  has_plan_ = true;
  ++plans_;
  return result;
}

void Replanner::reset() {
  has_plan_ = false;
  current_ = core::Selection{};
}

core::Selection Replanner::plan_warm(const core::ErEngine& engine,
                                     double budget, ReplanStats& stats) {
  const std::size_t n = system_.path_count();

  // 1. Seed the lazy heap with every path's last evaluated weight,
  // inflated by the slack so weights that grew since the previous run
  // still surface in time.  No initial evaluation pass: the stale seeds
  // only order the first pops, and the loop re-measures before committing
  // — previous paths compete on fresh gains like everyone else, so the
  // selection can both keep and drop them.
  std::vector<core::LazySeed> seeds;
  for (std::size_t q = 0; q < n; ++q) {
    if (cost_[q] > budget) continue;  // Can never commit; skip its evals.
    seeds.push_back({last_weight_[q] * (1.0 + kWeightSlack), q});
  }

  // 2. The lazy loop; every pop re-evaluates against the current engine
  // before committing.  Each path commits at most once.
  auto acc = engine.make_accumulator();
  const core::Selection greedy =
      core::rome_lazy(*acc, cost_, budget, seeds, kGainTolerance,
                      last_weight_, stats.rome);
  for (const std::size_t q : greedy.paths) {
    if (std::find(current_.paths.begin(), current_.paths.end(), q) !=
        current_.paths.end()) {
      ++stats.reused;
    }
  }

  // 3. Algorithm 1 fallback from the remembered best single path; a full
  // re-scan only when it is no longer affordable (e.g. the budget shrank).
  core::Selection single;
  if (best_single_ < n && cost_[best_single_] <= budget) {
    auto single_acc = engine.make_accumulator();
    const double er = single_acc->gain(best_single_);
    ++stats.rome.gain_evaluations;
    single.paths = {best_single_};
    single.cost = cost_[best_single_];
    single.objective = er;
  } else {
    single = core::selector_detail::best_single(
        system_, cost_, budget, engine, &stats.rome.gain_evaluations);
    best_single_ = single.paths.empty() ? n : single.paths.front();
  }

  return greedy.objective >= single.objective ? greedy : single;
}

}  // namespace rnt::online
