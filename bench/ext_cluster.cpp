// Extension benchmark: the sharded cluster layer vs the single-node
// kernel engine, with a machine-readable BENCH_CLUSTER.json report.
//
// Spins W in-process loopback workers (real ReactorServers, real sockets —
// the full wire path minus propagation delay) and measures cluster
// evaluate() and a RoMe gain sweep against the local KernelErEngine on
// the identical workload.  Every cluster result is asserted *bitwise*
// equal to the single-node answer first: a perf number for a wrong merge
// is worthless.
//
// The report intentionally carries NO gated ratios: loopback RPC scaling
// depends on core count and scheduler load, so tools/bench_compare runs
// it purely informationally (the committed baseline's "ratios" object is
// empty — keep it that way when re-baselining).  Scaling factors are
// printed for humans below the table.
#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "cluster/coordinator.h"
#include "core/rome.h"
#include "service/reactor_server.h"
#include "service/workload_cache.h"
#include "util/table.h"

namespace rnt {
namespace {

/// In-process loopback worker fleet (mirrors tests/test_cluster.cpp).
class Fleet {
 public:
  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto worker = std::make_unique<Worker>();
      worker->server = std::make_unique<service::ReactorServer>(
          service::ReactorServerConfig{.port = 0,
                                       .threads = 2,
                                       .cache_capacity = 2,
                                       .request_timeout_s = 120.0});
      worker->runner =
          std::thread([srv = worker->server.get()] { srv->run(); });
      workers_.push_back(std::move(worker));
    }
  }

  ~Fleet() {
    for (const auto& w : workers_) {
      w->server->stop();
      w->runner.join();
    }
  }

  std::vector<cluster::WorkerEndpoint> endpoints() const {
    std::vector<cluster::WorkerEndpoint> eps;
    for (const auto& w : workers_) {
      cluster::WorkerEndpoint ep;
      ep.port = w->server->port();
      eps.push_back(ep);
    }
    return eps;
  }

 private:
  struct Worker {
    std::unique_ptr<service::ReactorServer> server;
    std::thread runner;
  };
  std::vector<std::unique_ptr<Worker>> workers_;
};

int run(Flags& flags) {
  const std::size_t paths =
      static_cast<std::size_t>(flags.get_int("paths", 60));
  const std::size_t runs = static_cast<std::size_t>(flags.get_int("runs", 40));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 5));
  const double budget_frac = flags.get_double("budget-frac", 0.25);
  const double min_seconds = flags.get_double("min-seconds", 0.2);
  const std::string json_path = flags.get_string("json", "");
  const bool csv = flags.get_bool("csv", false);

  service::WorkloadKey key;
  key.nodes = 40;
  key.links = 80;
  key.candidate_paths = paths;
  key.seed = seed;
  key.intensity = 5.0;

  cluster::CoordinatorConfig config;
  config.runs = runs;
  config.rpc.reply_timeout_s = 120.0;

  // One fleet + coordinator per worker count, kept alive for the whole
  // run so measurements see warm connections and warm worker caches —
  // the steady state a resident coordinator actually operates in.
  const std::vector<std::size_t> worker_counts{1, 2, 4};
  std::vector<std::unique_ptr<Fleet>> fleets;
  std::vector<std::unique_ptr<cluster::Coordinator>> coords;
  for (const std::size_t w : worker_counts) {
    fleets.push_back(std::make_unique<Fleet>(w));
    coords.push_back(std::make_unique<cluster::Coordinator>(
        key, fleets.back()->endpoints(), config));
    coords.back()->hello();
  }

  const core::KernelErEngine& engine = coords.front()->engine();
  const exp::Workload& workload = coords.front()->workload().workload;
  std::vector<std::size_t> all(workload.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double budget = budget_frac * workload.costs.subset_cost(
                                          *workload.system, all);

  // Correctness first: every fleet's merge must be bitwise single-node.
  const double local_er = engine.evaluate(all);
  const core::Selection local_sel =
      core::rome(*workload.system, workload.costs, budget, engine);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (coords[i]->evaluate(all) != local_er) {
      std::cerr << "FATAL: cluster evaluate (" << worker_counts[i]
                << " workers) differs from single-node\n";
      return 1;
    }
    const core::Selection sel = coords[i]->select(budget);
    if (sel.paths != local_sel.paths ||
        sel.objective != local_sel.objective) {
      std::cerr << "FATAL: cluster selection (" << worker_counts[i]
                << " workers) differs from single-node\n";
      return 1;
    }
  }

  bench::BenchReport report("ext_cluster");
  report.set_config("topology", "custom-40n-80l");
  report.set_config("paths", static_cast<double>(paths));
  report.set_config("scenarios", static_cast<double>(runs));
  report.set_config("seed", static_cast<double>(seed));
  report.set_config("budget_frac", budget_frac);
  report.set_config("transport", "loopback TCP, in-process workers");

  const bench::LatencySample local_eval = bench::measure(
      [&] { (void)engine.evaluate(all); }, /*min_iterations=*/20,
      min_seconds);
  const bench::LatencySample local_select = bench::measure(
      [&] {
        (void)core::rome(*workload.system, workload.costs, budget, engine);
      },
      /*min_iterations=*/5, min_seconds);
  report.add_metric("local_evaluate", local_eval);
  report.add_metric("local_select", local_select);

  TablePrinter table({"operation", "ops/sec", "p50 us", "p95 us"});
  table.add_row({"local_evaluate", fmt(local_eval.ops_per_sec, 1),
                 fmt(local_eval.p50_us, 2), fmt(local_eval.p95_us, 2)});
  table.add_row({"local_select", fmt(local_select.ops_per_sec, 1),
                 fmt(local_select.p50_us, 2), fmt(local_select.p95_us, 2)});

  std::vector<bench::LatencySample> cluster_evals;
  std::vector<bench::LatencySample> cluster_selects;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    cluster::Coordinator& coord = *coords[i];
    const std::string w = std::to_string(worker_counts[i]);
    const bench::LatencySample eval = bench::measure(
        [&] { (void)coord.evaluate(all); }, /*min_iterations=*/20,
        min_seconds);
    const bench::LatencySample select = bench::measure(
        [&] { (void)coord.select(budget); }, /*min_iterations=*/5,
        min_seconds);
    cluster_evals.push_back(eval);
    cluster_selects.push_back(select);
    report.add_metric("cluster_evaluate_w" + w, eval);
    report.add_metric("cluster_select_w" + w, select);
    table.add_row({"cluster_evaluate_w" + w, fmt(eval.ops_per_sec, 1),
                   fmt(eval.p50_us, 2), fmt(eval.p95_us, 2)});
    table.add_row({"cluster_select_w" + w, fmt(select.ops_per_sec, 1),
                   fmt(select.p50_us, 2), fmt(select.p95_us, 2)});
  }
  table.print(std::cout, csv);

  if (!csv) {
    std::cout << "\ncluster vs local (informational; loopback RPC "
                 "overhead dominates at this scale):\n";
    for (std::size_t i = 0; i < coords.size(); ++i) {
      std::cout << "  " << worker_counts[i] << " worker(s): evaluate "
                << fmt(cluster_evals[i].ops_per_sec / local_eval.ops_per_sec,
                       3)
                << "x local, select "
                << fmt(cluster_selects[i].ops_per_sec /
                           local_select.ops_per_sec,
                       3)
                << "x local\n";
    }
    std::cout << "merge check: ER and selection bitwise identical to "
                 "single-node at every worker count\n";
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
  return rnt::bench::run_driver(
      argc, argv, [](rnt::Flags& flags) { return rnt::run(flags); });
}
