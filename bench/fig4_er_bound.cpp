// Figure 4 — quality of ER approximations as linearly dependent paths are
// added to a basis: a large-sample Monte Carlo reference ("true" ER), the
// analytical ProbBound of Eq. 7, and a 50-run Monte Carlo estimate.
//
// Expected shape: ProbBound >= reference everywhere (it is an upper bound),
// tight when few dependent paths are present and loosening as more are
// added; MC-50 is noisy precisely in the small-dependence regime where
// ProbBound is tight.
//
// Implementation: all three engines are evaluated through their incremental
// accumulators in a single pass over basis + dependents, so the sweep costs
// one set-construction rather than one evaluation per point.
#include <algorithm>
#include <numeric>

#include "bench_common.h"
#include "core/expected_rank.h"
#include "linalg/elimination.h"

namespace rnt::bench {
namespace {

int main_body(Flags& flags) {
  const CommonOptions opts = parse_common(flags);
  const std::string topology =
      opts.topology.empty() ? (opts.full ? "AS1239" : "AS1755") : opts.topology;
  const auto paths = static_cast<std::size_t>(
      flags.get_int("paths", opts.full ? 1600 : 400));
  const auto reference_runs = static_cast<std::size_t>(
      flags.get_int("reference-runs", opts.full ? 20000 : 3000));
  const auto small_runs =
      static_cast<std::size_t>(flags.get_int("small-runs", 50));
  const auto max_dependent = static_cast<std::size_t>(
      flags.get_int("max-dependent", opts.full ? 40 : 24));
  const auto step = static_cast<std::size_t>(flags.get_int("step", 4));
  print_header("Fig 4: ER approximations vs dependent paths (" + topology +
                   ")",
               opts);

  exp::WorkloadSpec spec;
  spec.topology = graph::parse_isp_topology(topology);
  spec.candidate_paths = paths;
  spec.seed = opts.seed;
  spec.failure_intensity = 5.0;  // Enough failure mass for visible gaps.
  const exp::Workload w = exp::make_workload(spec);

  // An arbitrary basis, then dependent paths appended one by one.
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto basis =
      linalg::independent_row_subset(tomo::path_matrix(*w.system, all));
  std::vector<std::size_t> dependents;
  for (std::size_t q = 0;
       q < w.system->path_count() && dependents.size() < max_dependent; ++q) {
    if (std::find(basis.begin(), basis.end(), q) == basis.end()) {
      dependents.push_back(q);
    }
  }

  Rng rng = w.eval_rng();
  core::MonteCarloEr mc_small(*w.system, *w.failures, small_runs, rng);
  core::ProbBoundEr bound(*w.system, *w.failures);

  // Checkpoints (number of dependent paths) at which values are recorded.
  std::vector<std::size_t> checkpoints = {0};
  for (std::size_t d = 1; d <= dependents.size(); ++d) {
    if (d % step == 0 || d == dependents.size()) checkpoints.push_back(d);
  }

  // Sweeps an accumulator through basis + dependents, recording its value
  // at every checkpoint.
  auto sweep = [&](core::ErAccumulator& acc) {
    std::vector<double> values;
    for (std::size_t q : basis) acc.add(q);
    std::size_t next = 0;
    if (checkpoints[next] == 0) {
      values.push_back(acc.value());
      ++next;
    }
    for (std::size_t d = 0; d < dependents.size(); ++d) {
      acc.add(dependents[d]);
      if (next < checkpoints.size() && checkpoints[next] == d + 1) {
        values.push_back(acc.value());
        ++next;
      }
    }
    return values;
  };

  // Large-sample reference, chunked so per-scenario bases never hold more
  // than `chunk` incremental eliminations in memory at once.
  const std::size_t chunk = 1000;
  std::vector<double> ref_values(checkpoints.size(), 0.0);
  std::size_t done = 0;
  while (done < reference_runs) {
    const std::size_t batch = std::min(chunk, reference_runs - done);
    core::MonteCarloEr ref_chunk(*w.system, *w.failures, batch, rng);
    auto acc = ref_chunk.make_accumulator();
    const auto values = sweep(*acc);
    for (std::size_t i = 0; i < values.size(); ++i) {
      ref_values[i] += values[i] * static_cast<double>(batch);
    }
    done += batch;
  }
  for (double& v : ref_values) v /= static_cast<double>(reference_runs);

  auto acc_small = mc_small.make_accumulator();
  const auto small_values = sweep(*acc_small);
  auto acc_bound = bound.make_accumulator();
  const auto bound_values = sweep(*acc_bound);

  TablePrinter table({"dependent paths",
                      "MC-" + std::to_string(reference_runs) + " (ref)",
                      "ProbBound", "MC-" + std::to_string(small_runs)});
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    table.add_row({std::to_string(checkpoints[i]), fmt(ref_values[i], 3),
                   fmt(bound_values[i], 3), fmt(small_values[i], 3)});
  }
  table.print(std::cout, opts.csv);
  return 0;
}

}  // namespace
}  // namespace rnt::bench

int main(int argc, char** argv) {
  return rnt::bench::run_driver(argc, argv, rnt::bench::main_body);
}
