// Micro-benchmarks for the Expected Rank engines — the repo's hottest
// path — with a machine-readable BENCH_ER.json report.
//
// Measures the scenario (floating-point elimination), kernel (bit-packed
// exact integer rank) and ProbBound engines on the same workload:
// per-call evaluate() latency, a greedy gain sweep (fresh accumulator,
// half the candidates committed, gains over the rest — the memo makes a
// bare repeated gain() a cache hit, so the sweep is the honest unit), and
// a full RoMe selection.  Cross-engine ratios are recorded alongside the
// absolute numbers; tools/bench_compare gates CI on the ratios against
// bench/baselines/BENCH_ER.json (see docs/BENCHMARKS.md).
//
// The scenario gain sweep and RoMe run on the testkit's
// DenseRowScenarioEngine: the same mixture and arithmetic as the
// production scenario accumulator, but each path reduced as its dense
// full-width row.  That fixes the kernel ratios' denominator to one cost
// model, so a faster production scenario accumulator does not read as a
// kernel slowdown.
//
// The kernel/scenario evaluate results are also asserted bitwise equal
// here, so a perf run that silently diverges fails loudly.
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "core/rome.h"
#include "exp/workload.h"
#include "testkit/dense_reference.h"
#include "util/table.h"

namespace rnt {
namespace {

int run(Flags& flags) {
  const std::size_t paths =
      static_cast<std::size_t>(flags.get_int("paths", 64));
  const std::size_t runs = static_cast<std::size_t>(flags.get_int("runs", 50));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 5));
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads", 4));
  const double min_seconds = flags.get_double("min-seconds", 0.2);
  const std::string json_path = flags.get_string("json", "");
  const bool csv = flags.get_bool("csv", false);

  const std::size_t wide_runs =
      static_cast<std::size_t>(flags.get_int("wide-runs", 256));

  const exp::Workload w =
      exp::make_custom_workload(87, 161, paths, seed, /*intensity=*/5.0);
  Rng rng = w.eval_rng();
  const core::MonteCarloEr scenario(*w.system, *w.failures, runs, rng);
  const core::KernelErEngine kernel(*w.system, scenario.scenarios(),
                                    scenario.weights(), scenario.name());
  const testkit::DenseRowScenarioEngine dense_scenario(
      *w.system, scenario.scenarios(), scenario.weights(), scenario.name());
  const core::ProbBoundEr probbound(*w.system, *w.failures);

  // Forced sliced-vs-scalar pair over one shared mixture, sampled at a
  // scenario count that fills the 64 instance lanes — the head-to-head
  // that isolates the rank kernel itself from the engine plumbing.
  // (The `kernel` engine above keeps the shipped auto default, which
  // resolves to sliced on this mixture.)
  const core::MonteCarloEr wide(*w.system, *w.failures, wide_runs, rng);
  core::KernelErEngine sliced_engine(*w.system, wide.scenarios(),
                                     wide.weights(), wide.name());
  sliced_engine.set_kernel_mode(core::KernelMode::kSliced);
  core::KernelErEngine scalar_engine(*w.system, wide.scenarios(),
                                     wide.weights(), wide.name());
  scalar_engine.set_kernel_mode(core::KernelMode::kScalar);

  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});

  // The perf claim is only meaningful if both engines agree.
  const double scenario_er = scenario.evaluate(all);
  const double kernel_er = kernel.evaluate(all);
  if (scenario_er != kernel_er) {
    std::cerr << "FATAL: kernel evaluate " << kernel_er
              << " differs from scenario evaluate " << scenario_er << "\n";
    return 1;
  }
  if (sliced_engine.evaluate(all) != scalar_engine.evaluate(all)) {
    std::cerr << "FATAL: sliced and scalar kernels disagree on evaluate\n";
    return 1;
  }

  bench::BenchReport report("micro_er_engines");
  report.set_config("topology", "custom-87n-161l");
  report.set_config("paths", static_cast<double>(paths));
  report.set_config("scenarios", static_cast<double>(runs));
  report.set_config("seed", static_cast<double>(seed));
  report.set_config("threads", static_cast<double>(threads));
  report.set_config("gain_sweep",
                    "fresh accumulator + paths/2 adds + paths/2 gains");
  report.set_config("wide_scenarios", static_cast<double>(wide_runs));

  auto time_evaluate = [&](const core::ErEngine& engine) {
    return bench::measure([&] { (void)engine.evaluate(all); },
                          /*min_iterations=*/20, min_seconds);
  };
  // One sweep = the greedy inner loop at half selection: build, commit the
  // first half, then one fresh gain per remaining candidate.
  auto time_gain_sweep = [&](const core::ErEngine& engine) {
    return bench::measure(
        [&] {
          auto acc = engine.make_accumulator();
          const std::size_t half = all.size() / 2;
          for (std::size_t q = 0; q < half; ++q) acc->add(q);
          double sink = 0.0;
          for (std::size_t q = half; q < all.size(); ++q) sink += acc->gain(q);
          if (sink < 0.0) std::cerr << "";  // Defeat dead-code elimination.
        },
        /*min_iterations=*/20, min_seconds);
  };
  auto time_rome = [&](const core::ErEngine& engine) {
    return bench::measure(
        [&] { (void)core::rome(*w.system, w.costs, 5000.0, engine); },
        /*min_iterations=*/10, min_seconds);
  };

  const bench::LatencySample scenario_eval = time_evaluate(scenario);
  const bench::LatencySample kernel_eval = time_evaluate(kernel);
  // Fresh engine per call: no warm rank memo, so this times packing +
  // dedup + elimination — the service's first-touch cost for a workload.
  const bench::LatencySample kernel_eval_cold = bench::measure(
      [&] {
        const core::KernelErEngine cold(*w.system, scenario.scenarios(),
                                        scenario.weights(), scenario.name());
        (void)cold.evaluate(all);
      },
      /*min_iterations=*/20, min_seconds);
  const bench::LatencySample kernel_eval_mt = bench::measure(
      [&] { (void)kernel.evaluate_parallel(all, threads); },
      /*min_iterations=*/20, min_seconds);
  const bench::LatencySample probbound_eval = time_evaluate(probbound);
  const bench::LatencySample scenario_gain = time_gain_sweep(dense_scenario);
  const bench::LatencySample kernel_gain = time_gain_sweep(kernel);
  const bench::LatencySample probbound_gain = time_gain_sweep(probbound);
  const bench::LatencySample scenario_rome = time_rome(dense_scenario);
  const bench::LatencySample kernel_rome = time_rome(kernel);
  const bench::LatencySample sliced_gain = time_gain_sweep(sliced_engine);
  const bench::LatencySample scalar_gain = time_gain_sweep(scalar_engine);
  const bench::LatencySample sliced_rome = time_rome(sliced_engine);
  const bench::LatencySample scalar_rome = time_rome(scalar_engine);

  report.add_metric("scenario_evaluate", scenario_eval);
  report.add_metric("kernel_evaluate", kernel_eval);
  report.add_metric("kernel_evaluate_cold", kernel_eval_cold);
  report.add_metric("kernel_evaluate_mt", kernel_eval_mt);
  report.add_metric("probbound_evaluate", probbound_eval);
  report.add_metric("scenario_gain_sweep", scenario_gain);
  report.add_metric("kernel_gain_sweep", kernel_gain);
  report.add_metric("probbound_gain_sweep", probbound_gain);
  report.add_metric("scenario_rome", scenario_rome);
  report.add_metric("kernel_rome", kernel_rome);
  report.add_metric("kernel_gain_sweep_sliced", sliced_gain);
  report.add_metric("kernel_gain_sweep_scalar", scalar_gain);
  report.add_metric("kernel_rome_sliced", sliced_rome);
  report.add_metric("kernel_rome_scalar", scalar_rome);

  report.add_ratio("sliced_vs_scalar_gain",
                   sliced_gain.ops_per_sec / scalar_gain.ops_per_sec);
  report.add_ratio("sliced_vs_scalar_rome",
                   sliced_rome.ops_per_sec / scalar_rome.ops_per_sec);
  report.add_ratio("kernel_vs_scenario_evaluate",
                   kernel_eval.ops_per_sec / scenario_eval.ops_per_sec);
  report.add_ratio("kernel_vs_scenario_gain",
                   kernel_gain.ops_per_sec / scenario_gain.ops_per_sec);
  report.add_ratio("kernel_vs_scenario_rome",
                   kernel_rome.ops_per_sec / scenario_rome.ops_per_sec);
  report.add_ratio("kernel_mt_vs_scenario_evaluate",
                   kernel_eval_mt.ops_per_sec / scenario_eval.ops_per_sec);
  report.add_ratio("kernel_cold_vs_scenario_evaluate",
                   kernel_eval_cold.ops_per_sec / scenario_eval.ops_per_sec);

  TablePrinter table({"metric", "ops/sec", "p50 us", "p95 us"});
  const std::vector<std::pair<std::string, bench::LatencySample>> rows = {
      {"scenario_evaluate", scenario_eval},
      {"kernel_evaluate", kernel_eval},
      {"kernel_evaluate_cold", kernel_eval_cold},
      {"kernel_evaluate_mt", kernel_eval_mt},
      {"probbound_evaluate", probbound_eval},
      {"scenario_gain_sweep", scenario_gain},
      {"kernel_gain_sweep", kernel_gain},
      {"probbound_gain_sweep", probbound_gain},
      {"scenario_rome", scenario_rome},
      {"kernel_rome", kernel_rome},
      {"kernel_gain_sweep_sliced", sliced_gain},
      {"kernel_gain_sweep_scalar", scalar_gain},
      {"kernel_rome_sliced", sliced_rome},
      {"kernel_rome_scalar", scalar_rome},
  };
  for (const auto& [name, sample] : rows) {
    table.add_row({name, fmt(sample.ops_per_sec, 1), fmt(sample.p50_us, 2),
                   fmt(sample.p95_us, 2)});
  }
  table.print(std::cout, csv);
  if (!csv) {
    std::cout << "\nkernel vs scenario: evaluate "
              << fmt(kernel_eval.ops_per_sec / scenario_eval.ops_per_sec, 2)
              << "x, gain sweep "
              << fmt(kernel_gain.ops_per_sec / scenario_gain.ops_per_sec, 2)
              << "x, rome "
              << fmt(kernel_rome.ops_per_sec / scenario_rome.ops_per_sec, 2)
              << "x (ER = " << fmt(kernel_er, 6) << ", bitwise equal)\n";
    std::cout << "sliced vs scalar kernel (MC-" << wide_runs
              << "): gain sweep "
              << fmt(sliced_gain.ops_per_sec / scalar_gain.ops_per_sec, 2)
              << "x, rome "
              << fmt(sliced_rome.ops_per_sec / scalar_rome.ops_per_sec, 2)
              << "x\n";
  }

  if (!json_path.empty()) {
    report.write(json_path);
    if (!csv) std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace rnt

int main(int argc, char** argv) {
  return rnt::bench::run_driver(argc, argv,
                                [](rnt::Flags& flags) { return rnt::run(flags); });
}
