// Extension — end-to-end metric inference: ER-robust selection vs a
// size-matched naive subset, scored by what tomography actually recovers.
//
// Figures 5/7 argue robustness in rank/identifiability terms; this driver
// closes the loop (ROADMAP item 4): for each failure family, both
// selections probe the same noisy ground truth through src/infer's
// select → fail → measure → solve → score pipeline, and are compared on
// per-link MSE over identifiable links and on coverage.  The naive
// baseline probes the *same number of paths*, chosen uniformly at random,
// so any gap is placement, not budget.
//
// Two error metrics, because they answer different questions:
//
//  * conditional per-link MSE — error over each selection's *own*
//    identifiable links.  Selection-biased: a sparse naive subset
//    identifies only easy, well-covered links, so its conditional MSE can
//    narrowly beat a robust selection at some seeds.
//  * network MSE — error over *all* links, with unidentifiable links
//    charged at the prior-mean fallback an operator would have to report.
//    Both selections are scored on the same link set, so this is the
//    apples-to-apples end-to-end metric and the one CI gates.
//
// Expected shape: ProbRoMe holds more links identifiable under failures
// (coverage ratio > 1), so far fewer links fall back to the prior and its
// network MSE is decisively lower (network_mse_naive_over_rome > 1) across
// both the independent (Markopoulou) and the correlated (SRLG) family; at
// the default high-failure regime (--intensity 15, --budget-frac 0.2) its
// conditional MSE is lower as well.
//
// With --json the ratios land in BENCH_INFER.json; CI gates them against
// bench/baselines/BENCH_INFER.json via tools/bench_compare.  The quality
// ratios are statistical, not wall-clock, so they are machine-independent
// and exactly reproducible from the seed.  Two ratios are speed ratios,
// both sides timed in the same process: cgls_lanes_over_single times the
// rome campaign's CGLS solves in lane groups against one call per
// scenario, and class_spaces_over_dense times the testkit's dense
// per-class row spaces against tomo::class_row_spaces on the campaign's
// scenario classes.  ext_estimation reports the same pipeline's budget
// sweep for one family; the two drivers share their scaffolding through
// bench_common.h.
#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/rome.h"
#include "failures/srlg.h"
#include "infer/inference.h"
#include "testkit/dense_reference.h"
#include "tomo/row_classes.h"

namespace rnt::bench {
namespace {

/// The same campaign's CGLS solves two ways, inputs prepared untimed: in
/// lane groups of infer::kLaneGroup over the subset's covered system (what
/// run_inference does), and one one-lane call per scenario over its own
/// surviving rows.  Both sides return bitwise-identical solutions.
std::pair<LatencySample, LatencySample> measure_lane_solves(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const infer::ScenarioSampler& sampler, const infer::GroundTruth& truth,
    const infer::InferenceConfig& config, std::uint64_t seed) {
  Rng scenario_rng(infer::derive_seed(seed, infer::kScenarioSalt));
  std::vector<infer::Observations> observations;
  std::vector<tomo::CoveredSystem> own;
  std::vector<linalg::RowSpace> spaces;
  for (std::size_t s = 0; s < config.scenarios; ++s) {
    const failures::FailureVector v = sampler(scenario_rng);
    Rng noise_rng(infer::derive_seed(seed, infer::kNoiseSalt + s));
    observations.push_back(infer::synthesize_observations(
        system, subset, truth, v, config.noise_std, noise_rng));
    own.push_back(tomo::covered_system(system, observations.back().rows));
    spaces.push_back(tomo::row_space_of(system, observations.back().rows));
  }
  const tomo::CoveredSystem covered = tomo::covered_system(system, subset);
  std::vector<const linalg::RowSpace*> space_ptrs;
  for (const linalg::RowSpace& space : spaces) space_ptrs.push_back(&space);
  const std::span<const infer::Observations> all(observations);
  const std::span<const linalg::RowSpace* const> all_spaces(space_ptrs);

  const LatencySample lanes = measure(
      [&] {
        for (std::size_t b = 0; b < all.size(); b += infer::kLaneGroup) {
          const std::size_t n = std::min(infer::kLaneGroup, all.size() - b);
          (void)infer::solve_lanes(covered, subset, all.subspan(b, n),
                                   all_spaces.subspan(b, n), config.model,
                                   config.solve);
        }
      },
      /*min_iterations=*/5, /*min_seconds=*/0.3);
  const LatencySample single = measure(
      [&] {
        for (std::size_t s = 0; s < all.size(); ++s) {
          (void)infer::solve_lanes(own[s], all[s].rows, all.subspan(s, 1),
                                   all_spaces.subspan(s, 1), config.model,
                                   config.solve);
        }
      },
      /*min_iterations=*/5, /*min_seconds=*/0.3);
  return {lanes, single};
}

/// The campaign's scenario classes (the subset first, then each scenario's
/// surviving rows, as solve_scenarios interns them) eliminated two ways:
/// the production forked sparse bases (tomo::class_row_spaces) and one
/// dense reduced row-echelon pass per class (the testkit reference).  Both
/// give the same ranks and identifiable links; a mismatch throws.
std::pair<LatencySample, LatencySample> measure_class_spaces(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const infer::ScenarioSampler& sampler, const infer::InferenceConfig& config,
    std::uint64_t seed) {
  Rng scenario_rng(infer::derive_seed(seed, infer::kScenarioSalt));
  tomo::RowClasses classes;
  classes.intern(subset);
  for (std::size_t s = 0; s < config.scenarios; ++s) {
    classes.intern(system.surviving_rows(subset, sampler(scenario_rng)));
  }
  const auto same = [](const std::vector<linalg::RowSpace>& a,
                       const std::vector<linalg::RowSpace>& b) {
    for (std::size_t c = 0; c < a.size(); ++c) {
      if (a[c].rank != b[c].rank || a[c].identifiable != b[c].identifiable) {
        return false;
      }
    }
    return a.size() == b.size();
  };
  if (!same(tomo::class_row_spaces(system, classes, true),
            testkit::dense_class_row_spaces(system, classes))) {
    throw std::runtime_error(
        "ext_inference: class_row_spaces differs from the dense reference");
  }
  const LatencySample sparse = measure(
      [&] { (void)tomo::class_row_spaces(system, classes, true); },
      /*min_iterations=*/5, /*min_seconds=*/0.3);
  const LatencySample dense = measure(
      [&] { (void)testkit::dense_class_row_spaces(system, classes); },
      /*min_iterations=*/5, /*min_seconds=*/0.3);
  return {sparse, dense};
}

int main_body(Flags& flags) {
  const CommonOptions opts = parse_common(flags);
  const auto paths = static_cast<std::size_t>(
      flags.get_int("paths", opts.full ? 400 : 200));
  const auto scenarios = static_cast<std::size_t>(
      flags.get_int("scenarios", opts.full ? 300 : 120));
  const double noise = flags.get_double("noise-std", 0.05);
  // High-failure regime by default: robustness is what is being measured,
  // and at mild intensities both selections survive mostly intact.
  const double budget_frac = flags.get_double("budget-frac", 0.2);
  const double intensity = flags.get_double("intensity", 15.0);
  const std::string json_path = flags.get_string("json", "");
  print_header("Extension: end-to-end inference, ER-robust vs size-matched "
               "naive",
               opts);

  const exp::Workload w =
      make_topology_workload(opts, "AS1755", paths, intensity);
  const double budget = budget_frac * total_probing_cost(w);

  core::ProbBoundEr engine(*w.system, *w.failures);
  const core::Selection rome_sel =
      core::rome(*w.system, w.costs, budget, engine);
  Rng naive_rng(opts.seed * 41);
  const std::vector<std::size_t> naive =
      random_k_paths(naive_rng, w.system->path_count(), rome_sel.size());

  infer::InferenceConfig config;
  config.model =
      infer::parse_measurement_model(flags.get_string("model", "delay"));
  config.noise_std = noise;
  config.scenarios = scenarios;
  config.threads = opts.threads;
  const infer::GroundTruth truth = infer::campaign_truth(
      config.model, w.system->link_count(), opts.seed, config.truth);

  // Two failure families: the paper's independent model and the SRLG
  // extension's correlated one (same layout as ext_correlated_failures).
  Rng srlg_rng(opts.seed * 31);
  const failures::SrlgModel srlg = failures::make_random_srlg_model(
      *w.failures, /*group_count=*/8, /*group_size=*/4,
      /*group_probability=*/0.02, srlg_rng);
  const infer::ScenarioSampler srlg_sampler = [&srlg](Rng& rng) {
    return srlg.sample(rng);
  };
  const infer::ScenarioSampler independent_sampler = [&w](Rng& rng) {
    return w.failures->sample(rng);
  };
  const std::vector<std::pair<std::string, const infer::ScenarioSampler*>>
      families = {{"independent", &independent_sampler},
                  {"srlg", &srlg_sampler}};

  BenchReport report("ext_inference");
  report.set_config("topology", w.topology_name);
  report.set_config("paths", static_cast<double>(paths));
  report.set_config("scenarios", static_cast<double>(scenarios));
  report.set_config("noise_std", noise);
  report.set_config("budget_frac", budget_frac);
  report.set_config("model", infer::to_string(config.model));
  report.set_config("selected_paths", static_cast<double>(rome_sel.size()));
  report.set_config("seed", static_cast<double>(opts.seed));

  report.set_config("intensity", intensity);

  TablePrinter table({"family", "selection", "coverage", "ident links",
                      "per-link MSE", "network MSE", "per-link |err|",
                      "solved"});
  for (const auto& [family, sampler] : families) {
    const infer::InferenceReport rome_report = infer::run_inference(
        *w.system, rome_sel.paths, *sampler, truth, config, opts.seed);
    const infer::InferenceReport naive_report = infer::run_inference(
        *w.system, naive, *sampler, truth, config, opts.seed);
    for (const auto& [name, r] :
         {std::pair<const char*, const infer::InferenceReport*>{
              "prob-rome", &rome_report},
          {"naive", &naive_report}}) {
      table.add_row({family, name, fmt(r->coverage.mean(), 4),
                     fmt(r->identifiable.mean(), 1), fmt(r->mse.mean(), 6),
                     fmt(r->network_mse.mean(), 6),
                     fmt(r->mean_abs_error.mean(), 6),
                     std::to_string(r->solved)});
    }
    report.add_ratio("coverage_rome_over_naive_" + family,
                     rome_report.coverage.mean() /
                         naive_report.coverage.mean());
    report.add_ratio("network_mse_naive_over_rome_" + family,
                     naive_report.network_mse.mean() /
                         rome_report.network_mse.mean());
    report.add_ratio("mse_naive_over_rome_" + family,
                     naive_report.mse.mean() / rome_report.mse.mean());
    report.add_ratio("mae_naive_over_rome_" + family,
                     naive_report.mean_abs_error.mean() /
                         rome_report.mean_abs_error.mean());
  }
  table.print(std::cout, opts.csv);

  // One wall-clock sample for humans and trend dashboards: a full
  // independent-family campaign (never gated — machine-dependent).
  if (!json_path.empty()) {
    const LatencySample campaign = measure(
        [&] {
          (void)infer::run_inference(*w.system, rome_sel.paths,
                                     independent_sampler, truth, config,
                                     opts.seed);
        },
        /*min_iterations=*/3, /*min_seconds=*/0.2);
    report.add_metric("rome_campaign", campaign);
    const auto [lanes, single] =
        measure_lane_solves(*w.system, rome_sel.paths, independent_sampler,
                            truth, config, opts.seed);
    report.add_metric("cgls_lane_groups", lanes);
    report.add_metric("cgls_one_per_scenario", single);
    report.add_ratio("cgls_lanes_over_single", single.p50_us / lanes.p50_us);
    const auto [sparse, dense] = measure_class_spaces(
        *w.system, rome_sel.paths, independent_sampler, config, opts.seed);
    report.add_metric("class_spaces_forked", sparse);
    report.add_metric("class_spaces_dense", dense);
    report.add_ratio("class_spaces_over_dense", dense.p50_us / sparse.p50_us);
    report.write(json_path);
    if (!opts.csv) std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace rnt::bench

int main(int argc, char** argv) {
  return rnt::bench::run_driver(argc, argv, rnt::bench::main_body);
}
