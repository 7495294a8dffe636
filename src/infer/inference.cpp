#include "infer/inference.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "tomo/row_classes.h"

namespace rnt::infer {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

GroundTruth campaign_truth(MeasurementModel model, std::size_t links,
                           std::uint64_t seed, const TruthOptions& options) {
  Rng rng(derive_seed(seed, kTruthSalt));
  return draw_ground_truth(model, links, rng, options);
}

std::vector<ScenarioSolution> solve_scenarios(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const ScenarioSampler& sampler, const GroundTruth& truth,
    const InferenceConfig& config, std::uint64_t seed) {
  // Scenario draws happen serially up front: the sampler sees one stream
  // in scenario order no matter how many solver threads run below.
  Rng scenario_rng(derive_seed(seed, kScenarioSalt));
  std::vector<failures::FailureVector> scenarios;
  scenarios.reserve(config.scenarios);
  for (std::size_t s = 0; s < config.scenarios; ++s) {
    scenarios.push_back(sampler(scenario_rng));
  }

  // Scenarios that leave the same rows share one row space (rank and
  // identifiable set); classes are interned here, in scenario order, so
  // the work below is schedule-independent.
  tomo::RowClasses classes;
  std::vector<std::size_t> class_of;
  class_of.reserve(scenarios.size());
  for (const failures::FailureVector& v : scenarios) {
    class_of.push_back(classes.intern(system.surviving_rows(subset, v)));
  }

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t requested =
      config.threads > 0 ? config.threads : (hw > 0 ? hw : std::size_t{1});
  const auto parallel_for = [requested](std::size_t n, const auto& body) {
    const std::size_t workers = std::min(std::max<std::size_t>(n, 1),
                                         std::max<std::size_t>(requested, 1));
    if (workers <= 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          body(i);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  };

  std::vector<linalg::RowSpace> spaces(classes.size());
  parallel_for(classes.size(), [&](std::size_t c) {
    spaces[c] = tomo::row_space_of(system, classes.rows(c));
  });

  // Every scenario is one lane of a CGLS run over the subset's covered
  // system; a group is a fixed range of scenario indices, so neither the
  // thread count nor the schedule changes any lane's arithmetic.
  const tomo::CoveredSystem covered = tomo::covered_system(system, subset);
  std::vector<ScenarioSolution> solutions(scenarios.size());
  const std::size_t groups = (scenarios.size() + kLaneGroup - 1) / kLaneGroup;
  parallel_for(groups, [&](std::size_t g) {
    const std::size_t begin = g * kLaneGroup;
    const std::size_t end = std::min(scenarios.size(), begin + kLaneGroup);
    std::vector<Observations> observations;
    std::vector<const linalg::RowSpace*> group_spaces;
    observations.reserve(end - begin);
    group_spaces.reserve(end - begin);
    for (std::size_t s = begin; s < end; ++s) {
      // The noise stream is keyed by scenario index, not by thread or
      // completion order, so every schedule synthesizes identical bytes.
      Rng noise_rng(derive_seed(seed, kNoiseSalt + s));
      observations.push_back(synthesize_observations(
          system, subset, truth, scenarios[s], config.noise_std, noise_rng));
      group_spaces.push_back(&spaces[class_of[s]]);
    }
    std::vector<ScenarioSolution> group =
        solve_lanes(covered, subset, observations, group_spaces, config.model,
                    config.solve);
    std::move(group.begin(), group.end(), solutions.begin() + begin);
  });
  return solutions;
}

InferenceReport run_inference(const tomo::PathSystem& system,
                              const std::vector<std::size_t>& subset,
                              const ScenarioSampler& sampler,
                              const GroundTruth& truth,
                              const InferenceConfig& config,
                              std::uint64_t seed) {
  const double fallback = prior_estimate(config.model, config.truth);
  // Fixed-order reduction: the float accumulation tree depends only on
  // scenario index, making the report bitwise thread-count independent.
  InferenceReport report;
  for (const ScenarioSolution& solution :
       solve_scenarios(system, subset, sampler, truth, config, seed)) {
    report.add(score_scenario(solution, truth, fallback));
  }
  return report;
}

InferenceReport run_inference(const tomo::PathSystem& system,
                              const std::vector<std::size_t>& subset,
                              const failures::FailureModel& failures,
                              const GroundTruth& truth,
                              const InferenceConfig& config,
                              std::uint64_t seed) {
  return run_inference(
      system, subset,
      [&failures](Rng& rng) { return failures.sample(rng); }, truth, config,
      seed);
}

}  // namespace rnt::infer
