// Figure 3 — rank of arbitrary bases vs. all candidate paths as the number
// of concurrent link failures grows (the paper's motivating experiment,
// AS1239 with 1600 candidate paths).
//
// Series: two arbitrary bases (random-order SelectPath bases, as prior work
// would select) and the full candidate set R_M.  Expected shape: all series
// decay with k; the full set dominates both bases; the two bases differ,
// showing that basis choice matters under failures.
#include "bench_common.h"
#include "core/select_path.h"

namespace rnt::bench {
namespace {

int main_body(Flags& flags) {
  const CommonOptions opts = parse_common(flags);
  const std::string topology =
      opts.topology.empty() ? (opts.full ? "AS1239" : "AS3257") : opts.topology;
  const auto paths = static_cast<std::size_t>(
      flags.get_int("paths", opts.full ? 1600 : 800));
  const auto max_failures =
      static_cast<std::size_t>(flags.get_int("max-failures", 10));
  const auto trials = static_cast<std::size_t>(
      flags.get_int("trials", opts.full ? 100 : 20));
  print_header("Fig 3: rank of a basis under concurrent failures (" +
                   topology + ", " + std::to_string(paths) + " paths)",
               opts);

  exp::WorkloadSpec spec;
  spec.topology = graph::parse_isp_topology(topology);
  spec.candidate_paths = paths;
  spec.seed = opts.seed;
  const exp::Workload w = exp::make_workload(spec);

  // Two arbitrary bases with different random scan orders.
  Rng basis_rng(opts.seed * 17 + 1);
  const auto basis1 = core::select_path_basis(*w.system, basis_rng);
  const auto basis2 = core::select_path_basis(*w.system, basis_rng);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});

  TablePrinter table({"failures", "basis-1 rank", "basis-2 rank",
                      "all-paths rank"});
  Rng rng = w.eval_rng();
  for (std::size_t k = 0; k <= max_failures; ++k) {
    RunningStats r1;
    RunningStats r2;
    RunningStats rall;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto v = w.failures->sample_exactly_k(k, rng);
      r1.add(static_cast<double>(w.system->surviving_rank(basis1.paths, v)));
      r2.add(static_cast<double>(w.system->surviving_rank(basis2.paths, v)));
      rall.add(static_cast<double>(w.system->surviving_rank(all, v)));
    }
    table.add_row({std::to_string(k), fmt(r1.mean(), 2), fmt(r2.mean(), 2),
                   fmt(rall.mean(), 2)});
  }
  table.print(std::cout, opts.csv);
  return 0;
}

}  // namespace
}  // namespace rnt::bench

int main(int argc, char** argv) {
  return rnt::bench::run_driver(argc, argv, rnt::bench::main_body);
}
