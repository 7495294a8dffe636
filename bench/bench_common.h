// Shared plumbing for the figure-reproduction drivers.
//
// Every driver prints the rows/series of one paper figure or table.
// Defaults are scaled down so the whole bench suite completes on a laptop
// core while preserving each figure's *shape* (who wins, by what factor,
// where curves cross); pass --full for the paper-scale parameters recorded
// in EXPERIMENTS.md, and --csv for machine-readable output.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "exp/metrics.h"
#include "exp/workload.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

namespace rnt::bench {

/// Flags shared by all figure drivers.
struct CommonOptions {
  bool full = false;
  bool csv = false;
  bool golden = false;      ///< Deterministic output only: drivers drop
                            ///< wall-clock columns/lines so runs diff
                            ///< bitwise (tests/golden).
  std::uint64_t seed = 1;
  std::string topology;     ///< Empty = driver default.
  std::string engine = "mc";  ///< Scenario ER engine: "mc" (float
                              ///< elimination) or "kernel" (bit-packed
                              ///< ranks) — same sampler, bitwise-equal
                              ///< evaluate(), gains within 1e-9, so a
                              ///< greedy selection can differ.
  std::string kernel = "auto";  ///< Rank kernel inside --engine=kernel:
                                ///< "auto" | "sliced" | "scalar" — the
                                ///< three agree bitwise, speed only.
  std::size_t threads = 0;  ///< Workers for parallel ER evaluation;
                            ///< 0 = hardware concurrency.
};

inline CommonOptions parse_common(Flags& flags) {
  CommonOptions opts;
  opts.full = flags.get_bool("full", false);
  opts.csv = flags.get_bool("csv", false);
  opts.golden = flags.get_bool("golden", false);
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.topology = flags.get_string("topology", "");
  opts.engine = flags.get_string("engine", "mc");
  opts.kernel = flags.get_string("kernel", "auto");
  opts.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  return opts;
}

/// Monte-Carlo-style scenario engine for --engine: both choices draw the
/// identical scenario set from `rng` (same sampler, same order), so their
/// evaluate() results are bitwise-equal.  Their gains agree only within
/// 1e-9 (the kernel sums merged scenario-class weights; the
/// kernel-matches-scenario check), so a greedy near-tie can break
/// differently: the two chose different paths on 85 of 600 sampled
/// workloads.  `kernel` picks the rank kernel inside the kernel engine
/// (auto | sliced | scalar; bitwise the same answers).  Throws on unknown
/// names so typos fail loudly.
inline std::unique_ptr<core::ScenarioErEngine> make_scenario_engine(
    const std::string& engine, const tomo::PathSystem& system,
    const failures::FailureModel& model, std::size_t runs, Rng& rng,
    const std::string& kernel = "auto") {
  const core::KernelMode mode = core::parse_kernel_mode(kernel);
  if (engine == "mc") {
    if (mode != core::KernelMode::kAuto) {
      throw std::invalid_argument("--kernel only applies to --engine=kernel");
    }
    return std::make_unique<core::MonteCarloEr>(system, model, runs, rng);
  }
  if (engine == "kernel") {
    auto built = std::make_unique<core::KernelErEngine>(
        core::KernelErEngine::monte_carlo(system, model, runs, rng));
    built->set_kernel_mode(mode);
    return built;
  }
  throw std::invalid_argument("unknown --engine '" + engine +
                              "' (expected mc or kernel)");
}

/// Builds the calibrated topology workload the extension drivers share
/// (ext_estimation, ext_inference, ...): --topology with a per-driver
/// fallback, candidate-path count, and the paper's failure intensity.
inline exp::Workload make_topology_workload(const CommonOptions& opts,
                                            const std::string& fallback,
                                            std::size_t candidate_paths,
                                            double intensity = 5.0) {
  exp::WorkloadSpec spec;
  spec.topology = graph::parse_isp_topology(
      opts.topology.empty() ? fallback : opts.topology);
  spec.candidate_paths = candidate_paths;
  spec.seed = opts.seed;
  spec.failure_intensity = intensity;
  return exp::make_workload(spec);
}

/// Every candidate path index, ascending — the budget denominators and
/// "probe everything" baselines.
inline std::vector<std::size_t> all_paths_of(const tomo::PathSystem& system) {
  std::vector<std::size_t> all(system.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

/// Cost of probing every candidate path (budget fractions scale this).
inline double total_probing_cost(const exp::Workload& w) {
  return w.costs.subset_cost(*w.system, all_paths_of(*w.system));
}

/// Seeded uniform random subset of exactly `k` distinct paths — the
/// size-matched naive baseline a robust selection is compared against.
inline std::vector<std::size_t> random_k_paths(Rng& rng,
                                               std::size_t path_count,
                                               std::size_t k) {
  std::vector<std::size_t> all(path_count);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng.shuffle(all);
  all.resize(std::min(k, path_count));
  std::sort(all.begin(), all.end());
  return all;
}

inline void print_header(const std::string& title, const CommonOptions& opts) {
  if (opts.csv) return;
  std::cout << "=== " << title << " ===\n";
  std::cout << (opts.full ? "[paper-scale parameters]"
                          : "[reduced default parameters; --full for "
                            "paper scale]")
            << "\n\n";
}

/// Wraps driver main bodies with uniform error reporting.
template <typename Fn>
int run_driver(int argc, char** argv, Fn&& body) {
  try {
    Flags flags(argc, argv);
    const int rc = body(flags);
    flags.finish();
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rnt::bench
