// Extension — Theorem 10's regret bound vs measured regret.
//
// On an instance engineered to satisfy the theorem's conditions (disjoint
// single-link paths => every selection is linearly independent and the
// knapsack optimum is unique), the bound
//
//   R(n) <= Δ N [ (2L/δ)² (L+1) ln n + 1 + (π⁴/45) L ]
//
// is evaluated from the instance's true Δ, δ, N, L (checked via the
// Lemma 11 machinery) and printed against LSR's measured regret — showing
// both the log-shape agreement and the (expected, very large) constant gap
// between worst-case analysis and practice.
#include <cmath>
#include <numeric>

#include "bench_common.h"
#include "core/expected_rank.h"
#include "learning/lsr.h"
#include "learning/simulator.h"
#include "testkit/knapsack.h"
#include "tomo/path_system.h"

namespace rnt::bench {
namespace {

/// Disjoint single-link paths: the tractable gadget of the analysis.
tomo::PathSystem disjoint_paths(std::size_t n) {
  std::vector<tomo::ProbePath> paths(n);
  for (std::size_t i = 0; i < n; ++i) {
    paths[i].source = static_cast<graph::NodeId>(2 * i);
    paths[i].destination = static_cast<graph::NodeId>(2 * i + 1);
    paths[i].links = {static_cast<graph::EdgeId>(i)};
    paths[i].hops = 1;
  }
  return tomo::PathSystem(n, paths);
}

int main_body(Flags& flags) {
  const CommonOptions opts = parse_common(flags);
  const auto n_paths = static_cast<std::size_t>(flags.get_int("paths", 8));
  const auto budget = static_cast<std::size_t>(flags.get_int("budget", 3));
  const auto epochs = static_cast<std::size_t>(
      flags.get_int("epochs", opts.full ? 20000 : 4000));
  print_header("Extension: Theorem 10 bound vs measured LSR regret (" +
                   std::to_string(n_paths) + " disjoint paths, L = " +
                   std::to_string(budget) + ")",
               opts);

  // Distinct availabilities so the knapsack optimum is unique.
  tomo::PathSystem system = disjoint_paths(n_paths);
  std::vector<double> p(n_paths);
  for (std::size_t i = 0; i < n_paths; ++i) {
    p[i] = 0.1 + 0.8 * static_cast<double>(i) / static_cast<double>(n_paths);
  }
  failures::FailureModel model(p);
  tomo::CostModel costs = tomo::CostModel::unit();

  // Lemma 11 conditions must hold on this instance.
  const auto lemma = core::lemma11_condition(system, model, costs,
                                             static_cast<double>(budget));
  if (!lemma.holds()) {
    std::cout << "instance does not satisfy Lemma 11 — adjust parameters\n";
    return 1;
  }

  // Instance constants for the bound: availabilities theta_i = 1 - p_i.
  // EA of a set = sum of thetas; ER = EA (independent paths).
  std::vector<double> theta(n_paths);
  for (std::size_t i = 0; i < n_paths; ++i) theta[i] = 1.0 - p[i];
  std::vector<double> sorted = theta;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double best = 0.0, worst = 0.0, second = 0.0;
  for (std::size_t i = 0; i < budget; ++i) {
    best += sorted[i];
    worst += sorted[sorted.size() - 1 - i];
  }
  // Second-best set swaps the weakest chosen path for the strongest
  // unchosen one.
  second = best - sorted[budget - 1] + sorted[budget];
  const double delta_gap = best - worst;    // Δ: max ER gap.
  const double delta_min = best - second;   // δ: min EA gap (> 0 by Lemma).
  const double big_l = static_cast<double>(budget);
  const double big_n = static_cast<double>(n_paths);

  auto bound_at = [&](double n) {
    return delta_gap * big_n *
           (std::pow(2.0 * big_l / delta_min, 2.0) * (big_l + 1.0) *
                std::log(n) +
            1.0 + std::pow(std::acos(-1.0), 4.0) / 45.0 * big_l);
  };

  // Run LSR and measure regret against the exact clairvoyant reward.
  learning::Lsr learner(system, costs,
                        learning::LsrConfig{.budget = 0.0,
                                            .matroid_mode = true,
                                            .matroid_max_paths = budget});
  Rng rng(opts.seed * 7);
  const auto result =
      learning::run_learner(learner, system, model, epochs, rng);
  const auto regret = result.regret_curve(best);

  TablePrinter table({"epoch", "measured regret", "Theorem 10 bound",
                      "bound / measured"});
  for (std::size_t checkpoint = epochs / 8; checkpoint <= epochs;
       checkpoint += epochs / 8) {
    const double measured = std::max(regret[checkpoint - 1], 0.0);
    const double bound = bound_at(static_cast<double>(checkpoint));
    table.add_row({std::to_string(checkpoint), fmt(measured, 2),
                   fmt(bound, 0),
                   measured > 0 ? fmt(bound / measured, 0) : "-"});
  }
  table.print(std::cout, opts.csv);
  if (!opts.csv) {
    std::cout << "\ninstance: Delta=" << fmt(delta_gap, 3)
              << " delta=" << fmt(delta_min, 3) << " N=" << n_paths
              << " L=" << budget << " (Lemma 11 holds: knapsack optimum "
              << "unique and independent)\n";
  }
  return 0;
}

}  // namespace
}  // namespace rnt::bench

int main(int argc, char** argv) {
  return rnt::bench::run_driver(argc, argv, rnt::bench::main_body);
}
