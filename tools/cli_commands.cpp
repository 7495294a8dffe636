#include "cli_commands.h"

#include <atomic>
#include <cmath>
#include <csignal>
#include <iostream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "boolnt/identifiability.h"
#include "boolnt/localize.h"
#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "core/rome.h"
#include "exp/metrics.h"
#include "exp/workload.h"
#include "failures/srlg.h"
#include "graph/bridges.h"
#include "graph/centrality.h"
#include "graph/io.h"
#include "infer/inference.h"
#include "learning/baselines.h"
#include "learning/lsr.h"
#include "learning/simulator.h"
#include "online/pipeline.h"
#include "service/client.h"
#include "service/reactor_server.h"
#include "service/workload_cache.h"
#include "testkit/checks.h"
#include "testkit/fuzzer.h"
#include "testkit/instance.h"
#include "tomo/localization.h"
#include "util/table.h"

namespace rnt::cli {
namespace {

/// Builds the workload shared by select / evaluate / learn / localize.
/// A count flag that must be positive ("--<name> must be positive").
std::size_t positive_count(Flags& flags, const std::string& name,
                           std::size_t def) {
  const std::size_t n = flags.get_count(name, def);
  if (n == 0) throw std::invalid_argument("--" + name + " must be positive");
  return n;
}

exp::Workload build_workload(Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto paths = flags.get_count("paths", 400);
  const double intensity = flags.get_double("intensity", 5.0);
  const std::string input = flags.get_string("input", "");
  const std::string as_name = flags.get_string("as", "");

  if (!input.empty()) {
    exp::Workload w;
    w.topology_name = input;
    w.graph = graph::load_edge_list(input);
    w.seed = seed;
    Rng rng(seed);
    w.system = std::make_unique<tomo::PathSystem>(
        tomo::build_path_system(w.graph, paths, rng, &w.monitors));
    w.failures = std::make_unique<failures::FailureModel>(
        failures::markopoulou_model(w.graph.edge_count(), rng, intensity));
    w.costs = tomo::CostModel::paper_model(w.monitors, rng);
    return w;
  }
  if (!as_name.empty()) {
    exp::WorkloadSpec spec;
    spec.topology = graph::parse_isp_topology(as_name);
    spec.candidate_paths = paths;
    spec.seed = seed;
    spec.failure_intensity = intensity;
    return exp::make_workload(spec);
  }
  const auto nodes = flags.get_count("nodes", 87);
  const auto links = flags.get_count("links", 161);
  return exp::make_custom_workload(nodes, links, paths, seed, intensity);
}

/// The paths --algorithm (default prob-rome) picks at `budget` under
/// --optimizer and --kernel, through the service's selection dispatch.  A
/// non-auto --kernel is rejected for any algorithm but kernel-rome: only
/// that one runs a kernel engine.
core::Selection select_paths(Flags& flags, const service::CachedWorkload& cw,
                             double budget) {
  const std::string algorithm = flags.get_string("algorithm", "prob-rome");
  const core::KernelMode kernel =
      core::parse_kernel_mode(flags.get_string("kernel", "auto"));
  if (kernel != core::KernelMode::kAuto && algorithm != "kernel-rome") {
    throw std::invalid_argument("--kernel only applies to kernel-rome");
  }
  return service::run_algorithm(
      cw, algorithm, flags.get_string("optimizer", "rome"), budget, kernel);
}

/// The probing budget --budget-frac (default 0.3) names, as a fraction of
/// the cost of probing every path.  A budget that is not finite or is
/// negative is rejected, so NaN cannot slip past the selectors' budget
/// tests.
double budget_of(Flags& flags, const exp::Workload& w) {
  const double budget =
      flags.get_double("budget-frac", 0.3) * service::total_cost(w);
  if (!std::isfinite(budget) || budget < 0.0) {
    throw std::invalid_argument(
        "--budget-frac must give a finite, non-negative budget");
  }
  return budget;
}

/// Parses a CSV of positive failure intensities ("2,10,5").
std::vector<double> parse_intensities(const std::string& csv) {
  std::vector<double> intensities;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size() || value <= 0.0) {
      throw std::invalid_argument("--segments: bad intensity '" + token +
                                  "'");
    }
    intensities.push_back(value);
  }
  if (intensities.empty()) {
    throw std::invalid_argument("--segments: no intensities given");
  }
  return intensities;
}

}  // namespace

void print_usage(std::ostream& out) {
  out <<
      "usage: rnt_cli "
      "<topology|select|evaluate|learn|localize|localize-node|infer|pipeline|"
      "serve|client|fuzz> [--flags]\n"
      "\n"
      "common workload flags:\n"
      "  --as NAME          AS1755 | AS3257 | AS1239 (calibrated synthetic)\n"
      "  --input FILE       load an edge-list topology instead\n"
      "  --nodes N --links M  custom ISP-like topology\n"
      "  --paths N          candidate path count (default 400)\n"
      "  --seed S           RNG seed (default 1)\n"
      "  --intensity X      failure model scale (default 5.0)\n"
      "\n"
      "select/evaluate/localize flags:\n"
      "  --algorithm A      prob-rome | monte-rome | kernel-rome | "
      "select-path | mat-rome\n"
      "  --optimizer O      rome | eager | lazy-greedy | stochastic-greedy | "
      "local-search | branch-and-bound\n"
      "  --kernel K         kernel-rome's rank kernel: auto | sliced | "
      "scalar\n"
      "                     (identical selections; sliced packs 64 "
      "scenarios per word)\n"
      "  --budget-frac F    budget as a fraction of probing all paths\n"
      "  --scenarios N      evaluation failure scenarios\n"
      "  --identifiability  also score link identifiability (evaluate)\n"
      "\n"
      "localize-node flags (plus select flags):\n"
      "  --family F         node | link hypothesis components (default "
      "node)\n"
      "  --k N              max simultaneous failures (default 2)\n"
      "  --scenarios N      injected failure trials (default 300)\n"
      "  --ident-cap N      also compute Ma-He / per-component "
      "identifiability up to N\n"
      "\n"
      "infer flags (plus select flags):\n"
      "  --model M          delay | loss measurement model (default delay)\n"
      "  --noise X          additive-domain probe noise sigma (default "
      "0.05)\n"
      "  --family F         independent | srlg failure family\n"
      "  --scenarios N      failure scenarios (default 200)\n"
      "  --threads N        solver workers; report is bitwise identical "
      "for any N\n"
      "\n"
      "learn flags:\n"
      "  --learner L        lsr | epsilon-greedy | thompson\n"
      "  --epochs N         training epochs (default 500)\n"
      "  --epsilon X        exploration rate for epsilon-greedy (default 0.1)\n"
      "\n"
      "topology flags:\n"
      "  --output FILE      save the topology as an edge list\n"
      "\n"
      "pipeline flags:\n"
      "  --policy P         static | adaptive | periodic | oracle\n"
      "  --segments CSV     failure intensities, one regime each "
      "(default 2,10,5)\n"
      "  --segment-epochs N epochs per regime (default 40)\n"
      "  --period N         periodic re-plan interval (default 20)\n"
      "  --budget-frac F    probing budget fraction (default 0.3)\n"
      "  --trace FILE       replay a saved failure trace instead\n"
      "  --series FILE      save the per-epoch series as CSV\n"
      "\n"
      "serve flags:\n"
      "  --port N           TCP port on 127.0.0.1 (default 7070)\n"
      "  --threads N        worker pool size (default: hardware)\n"
      "  --cache N          resident workloads, LRU-bounded (default 8)\n"
      "  --timeout S        per-request reply deadline in seconds\n"
      "  --max-queue N      admission bound: in-flight requests past it\n"
      "                     get 'error overloaded: ...' (0 = off)\n"
      "  --idle-timeout S   evict connections idle for S seconds\n"
      "  --max-conns N      connection cap (default: below RLIMIT_NOFILE)\n"
      "\n"
      "client flags:\n"
      "  --host H --port N  service address (default 127.0.0.1:7070)\n"
      "  --request LINE     one protocol line; omit to read lines from "
      "stdin\n"
      "  --timeout S        reply wait in seconds\n"
      "\n"
      "fuzz flags:\n"
      "  --seed S           master seed; every case derives from it\n"
      "  --cases N          fuzz cases to run (default 1000)\n"
      "  --minutes M        wall-clock cap; 0 = none (default 0)\n"
      "  --checks CSV       run only the named checks (default: all)\n"
      "  --out DIR          write minimized repro files here\n"
      "  --replay FILE      re-run the check recorded in a repro file\n"
      "  --max-failures N   stop after N failures; 0 = never (default 1)\n"
      "  --no-shrink        keep failing instances unminimized\n"
      "  --inject-probbound X  deliberately deflate ProbBound by X per "
      "path (harness self-test)\n"
      "  --inject-sliced-er X  deliberately inflate the sliced kernel's "
      "ER by X (harness self-test)\n"
      "  --list             list registered checks and exit\n";
}

int cmd_topology(Flags& flags, std::ostream& out) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string input = flags.get_string("input", "");
  const std::string as_name = flags.get_string("as", "");
  graph::Graph g(0);
  if (!input.empty()) {
    g = graph::load_edge_list(input);
  } else if (!as_name.empty()) {
    Rng rng(seed);
    g = graph::build_isp_topology(graph::parse_isp_topology(as_name), rng);
  } else {
    const auto nodes = flags.get_count("nodes", 87);
    const auto links = flags.get_count("links", 161);
    Rng rng(seed);
    g = graph::build_isp_like(nodes, links, rng);
  }

  const auto bridges = graph::find_bridges(g);
  const auto articulation = graph::find_articulation_points(g);
  std::size_t max_deg = 0;
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    max_deg = std::max(max_deg, g.degree(n));
  }
  TablePrinter table({"property", "value"});
  table.add_row({"nodes", std::to_string(g.node_count())});
  table.add_row({"links", std::to_string(g.edge_count())});
  table.add_row({"connected", g.is_connected() ? "yes" : "no"});
  table.add_row({"max degree", std::to_string(max_deg)});
  table.add_row({"bridge links", std::to_string(bridges.size())});
  table.add_row({"articulation points", std::to_string(articulation.size())});
  table.print(out);

  const std::string output = flags.get_string("output", "");
  if (!output.empty()) {
    graph::save_edge_list(g, output);
    out << "\nwrote " << output << "\n";
  }
  return 0;
}

int cmd_select(Flags& flags, std::ostream& out) {
  const service::CachedWorkload cw(build_workload(flags));
  const exp::Workload& w = cw.workload;
  const std::string algorithm = flags.get_string("algorithm", "prob-rome");
  const std::string optimizer = flags.get_string("optimizer", "rome");
  const double budget = budget_of(flags, w);
  const core::Selection sel = select_paths(flags, cw, budget);

  // The default optimizer keeps the historical label so default output
  // stays byte-identical; non-default optimizers are named explicitly.
  const std::string label =
      optimizer == "rome" ? algorithm : algorithm + "+" + optimizer;
  out << "workload: " << w.topology_name << ", " << w.system->path_count()
      << " candidate paths, budget " << budget << "\n";
  out << label << " selected " << sel.size() << " paths, cost "
      << sel.cost << ", objective " << sel.objective << ", rank "
      << w.system->rank_of(sel.paths) << "\n\n";
  TablePrinter table({"path", "src", "dst", "hops", "cost", "availability"});
  const bool verbose = flags.get_bool("verbose", false);
  const std::size_t limit =
      verbose ? sel.paths.size() : std::min<std::size_t>(sel.paths.size(), 20);
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& p = w.system->path(sel.paths[i]);
    table.add_row({std::to_string(sel.paths[i]), std::to_string(p.source),
                   std::to_string(p.destination), std::to_string(p.hops),
                   fmt(w.costs.path_cost(p), 0),
                   fmt(w.system->expected_availability(sel.paths[i],
                                                       *w.failures),
                       4)});
  }
  table.print(out);
  if (limit < sel.paths.size()) {
    out << "... " << sel.paths.size() - limit << " more (use --verbose)\n";
  }
  return 0;
}

int cmd_evaluate(Flags& flags, std::ostream& out) {
  const service::CachedWorkload cw(build_workload(flags));
  const exp::Workload& w = cw.workload;
  const double budget = budget_of(flags, w);
  const auto scenarios = positive_count(flags, "scenarios", 200);
  const bool identifiability = flags.get_bool("identifiability", false);

  const core::Selection sel = select_paths(flags, cw, budget);
  Rng rng = w.eval_rng();
  exp::EvalOptions opts;
  opts.scenarios = scenarios;
  opts.identifiability = identifiability;
  const auto eval =
      exp::evaluate_selection(*w.system, sel.paths, *w.failures, opts, rng);

  TablePrinter table({"metric", "value"});
  table.add_row({"selected paths", std::to_string(sel.size())});
  table.add_row({"probing cost", fmt(sel.cost, 0)});
  table.add_row({"no-failure rank", std::to_string(eval.no_failure_rank)});
  table.add_row({"rank under failures (mean)", fmt(eval.rank.stats.mean(), 2)});
  table.add_row({"rank under failures (std)", fmt(eval.rank.stats.stddev(), 2)});
  table.add_row({"rank 10th percentile",
                 fmt(eval.rank.distribution.quantile(0.1), 1)});
  if (identifiability) {
    table.add_row({"identifiable links (no failure)",
                   std::to_string(eval.no_failure_identifiability)});
    table.add_row({"identifiable links (mean)",
                   fmt(eval.identifiability.stats.mean(), 2)});
  }
  table.print(out);
  return 0;
}

int cmd_learn(Flags& flags, std::ostream& out) {
  const exp::Workload w = build_workload(flags);
  const std::string which = flags.get_string("learner", "lsr");
  const double budget = budget_of(flags, w);
  const auto epochs = flags.get_count("epochs", 500);

  std::unique_ptr<learning::PathLearner> learner;
  if (which == "lsr") {
    learner = std::make_unique<learning::Lsr>(
        *w.system, w.costs, learning::LsrConfig{.budget = budget});
  } else if (which == "epsilon-greedy") {
    learner = std::make_unique<learning::EpsilonGreedy>(
        *w.system, w.costs, budget, flags.get_double("epsilon", 0.1),
        Rng(w.seed * 5));
  } else if (which == "thompson") {
    learner = std::make_unique<learning::ThompsonSampling>(
        *w.system, w.costs, budget, Rng(w.seed * 7));
  } else {
    throw std::invalid_argument(
        "unknown --learner (want lsr, epsilon-greedy or thompson): " + which);
  }

  Rng sim_rng(w.seed * 11);
  TablePrinter table({"epochs", "avg reward (window)"});
  const std::size_t window = std::max<std::size_t>(epochs / 5, 1);
  std::size_t done = 0;
  while (done < epochs) {
    const std::size_t batch = std::min(window, epochs - done);
    const auto result = learning::run_learner(*learner, *w.system,
                                              *w.failures, batch, sim_rng);
    done += batch;
    table.add_row(
        {std::to_string(done),
         fmt(result.cumulative_reward / static_cast<double>(batch), 2)});
  }
  table.print(out);

  const auto learned = learner->final_selection();
  core::ProbBoundEr engine(*w.system, *w.failures);
  const auto clairvoyant = core::rome(*w.system, w.costs, budget, engine);
  Rng eval_rng = w.eval_rng();
  const double s_learned = learning::estimate_expected_reward(
      *w.system, learned.paths, *w.failures, 500, eval_rng);
  const double s_clair = learning::estimate_expected_reward(
      *w.system, clairvoyant.paths, *w.failures, 500, eval_rng);
  out << "\nlearned selection expected rank: " << fmt(s_learned, 2)
      << " (clairvoyant " << fmt(s_clair, 2) << ", "
      << fmt(s_clair > 0 ? 100.0 * s_learned / s_clair : 100.0, 1) << "%)\n";
  return 0;
}

int cmd_localize(Flags& flags, std::ostream& out) {
  const service::CachedWorkload cw(build_workload(flags));
  const exp::Workload& w = cw.workload;
  const double budget = budget_of(flags, w);
  const auto trials = positive_count(flags, "scenarios", 300);
  const core::Selection sel = select_paths(flags, cw, budget);
  Rng rng = w.eval_rng();
  const auto score =
      tomo::score_localization(*w.system, sel.paths, *w.failures, trials, rng);
  TablePrinter table({"metric", "value"});
  table.add_row({"selected paths", std::to_string(sel.size())});
  table.add_row({"injected failures", std::to_string(score.trials)});
  table.add_row({"localized exactly", std::to_string(score.exact)});
  table.add_row({"ambiguous", std::to_string(score.ambiguous)});
  table.add_row({"invisible", std::to_string(score.invisible)});
  table.add_row({"mean candidate set", fmt(score.mean_candidates, 2)});
  table.print(out);
  return 0;
}

int cmd_localize_node(Flags& flags, std::ostream& out) {
  const service::CachedWorkload cw(build_workload(flags));
  const exp::Workload& w = cw.workload;
  const double budget = budget_of(flags, w);
  const std::string family = flags.get_string("family", "node");
  if (family != "node" && family != "link") {
    throw std::invalid_argument("--family must be node or link");
  }
  const auto k = positive_count(flags, "k", 2);
  const auto trials = positive_count(flags, "scenarios", 300);
  const auto ident_cap = flags.get_count("ident-cap", 0);
  const boolnt::HypothesisSpace space =
      family == "link"
          ? boolnt::HypothesisSpace::links_of(w.system->link_count())
          : boolnt::HypothesisSpace::nodes_of(w.graph);
  const core::Selection sel = select_paths(flags, cw, budget);
  Rng rng = w.eval_rng();
  const auto score = boolnt::score_multi_localization(*w.system, sel.paths,
                                                      space, k, trials, rng);
  TablePrinter table({"metric", "value"});
  table.add_row({"selected paths", std::to_string(sel.size())});
  table.add_row({"components (" + family + ")",
                 std::to_string(space.component_count())});
  table.add_row({"max simultaneous failures", std::to_string(k)});
  table.add_row({"injected failures", std::to_string(score.trials)});
  table.add_row({"localized exactly", std::to_string(score.exact)});
  table.add_row({"ambiguous", std::to_string(score.ambiguous)});
  table.add_row({"misled", std::to_string(score.misled)});
  table.add_row({"invisible", std::to_string(score.invisible)});
  table.add_row({"mean candidate sets", fmt(score.mean_candidates, 2)});
  table.add_row({"exact fraction", fmt(score.exact_fraction(), 3)});
  table.add_row({"hit fraction", fmt(score.hit_fraction(), 3)});
  if (ident_cap > 0) {
    const auto report = boolnt::identifiability_report(*w.system, sel.paths,
                                                       space, ident_cap);
    table.add_row({"identifiability cap", std::to_string(report.k_cap)});
    table.add_row(
        {"max identifiable", std::to_string(report.max_identifiable)});
    std::size_t min_component = report.k_cap;
    for (const std::size_t level : report.per_component) {
      min_component = std::min(min_component, level);
    }
    table.add_row({"weakest component level", std::to_string(min_component)});
  }
  table.print(out);
  return 0;
}

int cmd_infer(Flags& flags, std::ostream& out) {
  const service::CachedWorkload cw(build_workload(flags));
  const exp::Workload& w = cw.workload;
  const std::string algorithm = flags.get_string("algorithm", "prob-rome");
  const double budget = budget_of(flags, w);
  const std::string family = flags.get_string("family", "independent");

  infer::InferenceConfig config;
  config.model =
      infer::parse_measurement_model(flags.get_string("model", "delay"));
  config.noise_std = flags.get_double("noise", 0.05);
  if (!std::isfinite(config.noise_std) || config.noise_std < 0.0) {
    throw std::invalid_argument("--noise must be finite and non-negative");
  }
  config.scenarios = positive_count(flags, "scenarios", 200);
  config.threads = flags.get_count("threads", 1);

  const core::Selection sel = select_paths(flags, cw, budget);
  const infer::GroundTruth truth = infer::campaign_truth(
      config.model, w.system->link_count(), w.seed, config.truth);

  infer::InferenceReport report;
  if (family == "independent") {
    report = infer::run_inference(*w.system, sel.paths, *w.failures, truth,
                                  config, w.seed);
  } else if (family == "srlg") {
    // Same geography-like SRLG layout as ext_correlated_failures: disjoint
    // groups of links failing all-or-nothing on top of the background model.
    Rng srlg_rng(w.seed * 31);
    const failures::SrlgModel srlg = failures::make_random_srlg_model(
        *w.failures, /*group_count=*/8, /*group_size=*/4,
        /*group_probability=*/0.02, srlg_rng);
    report = infer::run_inference(
        *w.system, sel.paths,
        [&srlg](Rng& rng) { return srlg.sample(rng); }, truth, config,
        w.seed);
  } else {
    throw std::invalid_argument(
        "unknown --family (want independent or srlg): " + family);
  }

  out << "workload: " << w.topology_name << ", " << sel.size()
      << " probe paths (" << algorithm << ", budget " << budget << "), "
      << infer::to_string(config.model) << " model, noise "
      << config.noise_std << "\n\n";
  TablePrinter table({"metric", "value"});
  table.add_row({"scenarios", std::to_string(report.scenarios)});
  table.add_row({"solved (>=1 surviving row)", std::to_string(report.solved)});
  table.add_row({"cgls converged", std::to_string(report.converged)});
  table.add_row({"identifiable links (mean)",
                 fmt(report.identifiable.mean(), 2)});
  table.add_row({"coverage (mean)", fmt(report.coverage.mean(), 3)});
  table.add_row({"per-link MSE (mean)", fmt(report.mse.mean(), 6)});
  table.add_row({"network MSE (mean)", fmt(report.network_mse.mean(), 6)});
  table.add_row({"per-link |error| (mean)",
                 fmt(report.mean_abs_error.mean(), 6)});
  table.add_row({"per-link |error| (worst)",
                 fmt(report.max_abs_error.max(), 6)});
  table.add_row({"residual norm (mean)", fmt(report.residual.mean(), 6)});
  table.add_row({"cgls iterations (mean)", fmt(report.iterations.mean(), 1)});
  table.print(out);
  return 0;
}

int cmd_pipeline(Flags& flags, std::ostream& out) {
  const exp::Workload w = build_workload(flags);
  const std::size_t links = w.system->link_count();

  // Non-stationary workload: one markopoulou model per segment, each with
  // its own forked rng so a regime change moves which links are fragile,
  // not just how fragile they are.
  const std::vector<double> intensities =
      parse_intensities(flags.get_string("segments", "2,10,5"));
  const auto segment_epochs = flags.get_count("segment-epochs", 40);
  if (segment_epochs == 0) {
    throw std::invalid_argument("--segment-epochs must be positive");
  }
  Rng model_rng(w.seed * 13);
  std::vector<failures::FailureModel> models;
  models.reserve(intensities.size());
  for (const double intensity : intensities) {
    Rng seg_rng = model_rng.fork();
    models.push_back(failures::markopoulou_model(links, seg_rng, intensity));
  }

  const std::string trace_file = flags.get_string("trace", "");
  failures::FailureTrace trace(links);
  if (!trace_file.empty()) {
    trace = failures::FailureTrace::load(trace_file);
    if (trace.link_count() != links) {
      throw std::invalid_argument(
          "--trace: trace has " + std::to_string(trace.link_count()) +
          " links, workload has " + std::to_string(links));
    }
  } else {
    Rng record_rng(w.seed * 19);
    std::vector<failures::FailureTrace> segments;
    segments.reserve(models.size());
    for (const failures::FailureModel& model : models) {
      segments.push_back(
          failures::FailureTrace::record(model, segment_epochs, record_rng));
    }
    trace = failures::FailureTrace::concatenate(segments);
  }

  online::PipelineConfig config;
  config.budget = budget_of(flags, w);
  config.policy =
      online::parse_replan_policy(flags.get_string("policy", "adaptive"));
  config.period = flags.get_count("period", 20);
  // Deterministic given the seed, but non-zero so the estimation-error
  // series actually exercises the least-squares solver.
  config.probe.jitter_std_ms = flags.get_double("jitter", 0.5);
  config.oracle = [&models, segment_epochs](std::size_t epoch) {
    const std::size_t segment =
        std::min(epoch / segment_epochs, models.size() - 1);
    return models[segment];
  };

  Rng truth_rng(w.seed * 23);
  const tomo::GroundTruth truth = tomo::random_delays(links, truth_rng);

  online::Pipeline pipeline(*w.system, w.costs, truth, config);
  Rng run_rng(w.seed * 29);
  const online::PipelineResult result = pipeline.run(trace, run_rng);

  out << "workload: " << w.topology_name << ", " << w.system->path_count()
      << " candidate paths, budget " << config.budget << ", policy "
      << online::to_string(config.policy) << "\n";
  out << "trace: " << trace.epoch_count() << " epochs";
  if (trace_file.empty()) {
    out << " (" << intensities.size() << " segments x " << segment_epochs
        << ")";
  }
  out << ", mean concurrent failures "
      << fmt(trace.mean_concurrent_failures(), 2) << "\n\n";

  TablePrinter table({"metric", "value"});
  table.add_row({"epochs", std::to_string(result.epochs)});
  table.add_row({"re-plans", std::to_string(result.replans)});
  table.add_row({"re-plan fraction", fmt(result.replan_fraction(), 3)});
  table.add_row({"drift triggers", std::to_string(result.drift_triggers)});
  table.add_row({"cumulative surviving rank", fmt(result.cumulative_rank, 0)});
  table.add_row({"mean surviving rank", fmt(result.mean_rank, 2)});
  table.add_row({"mean estimation error", fmt(result.mean_estimation_error, 3)});
  table.add_row({"localized exactly", std::to_string(result.localized_exact)});
  table.add_row({"probe bytes", std::to_string(result.probe_bytes)});
  table.add_row({"gain evaluations", std::to_string(result.gain_evaluations)});
  table.add_row({"final selection", std::to_string(result.final_selection.size())});
  table.print(out);

  const std::string series_file = flags.get_string("series", "");
  if (!series_file.empty()) {
    result.series.save_csv(series_file);
    out << "\nwrote " << series_file << "\n";
  }
  return 0;
}

namespace {

/// SIGINT plumbing for `serve`: the handler may only touch the atomic
/// pointer; ReactorServer::stop() is async-signal-safe (an atomic store
/// plus a self-pipe write).
std::atomic<service::ReactorServer*> g_server{nullptr};

void handle_sigint(int) {
  if (service::ReactorServer* server = g_server.load()) server->stop();
}

}  // namespace

int cmd_serve(Flags& flags, std::ostream& out) {
  service::ReactorServerConfig config;
  config.port = static_cast<std::uint16_t>(flags.get_int("port", 7070));
  config.threads = flags.get_count("threads", 0);
  config.cache_capacity = flags.get_count("cache", 8);
  config.request_timeout_s = flags.get_double("timeout", 60.0);
  config.max_queue = flags.get_count("max-queue", 0);
  config.idle_timeout_ms = static_cast<std::uint64_t>(
      flags.get_double("idle-timeout", 0.0) * 1000.0);
  config.max_connections = flags.get_count("max-conns", 0);
  flags.finish();

  service::ReactorServer server(config);
  g_server.store(&server);
  struct sigaction action{};
  action.sa_handler = handle_sigint;
  struct sigaction previous{};
  ::sigaction(SIGINT, &action, &previous);
  out << "tomography service listening on 127.0.0.1:" << server.port()
      << " (" << server.service().pool_size() << " worker threads, cache "
      << config.cache_capacity << " workloads, request timeout "
      << config.request_timeout_s << "s)\n";
  out << "protocol: one request per line, e.g. 'select as=AS1755 "
         "budget-frac=0.1'; 'shutdown' or SIGINT to stop\n";
  out.flush();
  server.run();

  ::sigaction(SIGINT, &previous, nullptr);
  g_server.store(nullptr);
  out << "\n" << server.service().summary();
  return 0;
}

int cmd_client(Flags& flags, std::istream& in, std::ostream& out) {
  const std::string host = flags.get_string("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(flags.get_int("port", 7070));
  const double timeout = flags.get_double("timeout", 60.0);
  const std::string request = flags.get_string("request", "");

  service::TcpClient client(host, port, timeout);
  if (!request.empty()) {
    out << client.call_line(request) << "\n";
    return 0;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out << client.call_line(line) << "\n";
  }
  return 0;
}

int cmd_fuzz(Flags& flags, std::ostream& out) {
  testkit::FaultPlan fault;
  fault.probbound_deflate = flags.get_double("inject-probbound", 0.0);
  fault.sliced_er_inflate = flags.get_double("inject-sliced-er", 0.0);

  if (flags.get_bool("list", false)) {
    flags.finish();
    for (const testkit::Check& c : testkit::all_checks()) {
      out << c.name << " (stride " << c.stride << "): " << c.summary
          << "\n";
    }
    return 0;
  }

  const std::string replay = flags.get_string("replay", "");
  if (!replay.empty()) {
    flags.finish();
    const testkit::Repro repro = testkit::load_repro(replay);
    out << "replaying " << repro.check << " on " << repro.instance.origin
        << " (" << repro.instance.path_count() << " paths, "
        << repro.instance.link_count() << " links, seed "
        << repro.instance.check_seed << ")\n";
    const testkit::CheckResult result =
        testkit::replay_repro(repro, fault);
    if (result.passed) {
      out << "PASS: the check no longer fails on this instance\n";
      return 0;
    }
    out << "FAIL: " << result.message << "\n";
    return 1;
  }

  testkit::FuzzConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  config.cases = flags.get_count("cases", 1000);
  config.minutes = flags.get_double("minutes", 0.0);
  config.out_dir = flags.get_string("out", "");
  config.max_failures = flags.get_count("max-failures", 1);
  config.shrink_failures = !flags.get_bool("no-shrink", false);
  config.fault = fault;
  const std::string checks_csv = flags.get_string("checks", "");
  {
    std::istringstream in(checks_csv);
    std::string token;
    while (std::getline(in, token, ',')) {
      if (!token.empty()) config.checks.push_back(token);
    }
  }
  flags.finish();

  const testkit::FuzzReport report = testkit::run_fuzz(config, &out);

  TablePrinter table({"check", "runs"});
  for (const auto& [name, runs] : report.per_check) {
    table.add_row({name, std::to_string(runs)});
  }
  table.print(out);
  out << report.cases_run << " cases, " << report.checks_run
      << " check executions in " << report.seconds << "s";
  if (report.timed_out) out << " (stopped at the --minutes cap)";
  out << "\n";
  if (report.ok()) {
    out << "OK: no invariant violations\n";
    return 0;
  }
  for (const testkit::FuzzFailure& f : report.failures) {
    out << "FAILURE " << f.check << " (case seed " << f.case_seed
        << ", shrunk to " << f.instance.path_count() << " paths / "
        << f.instance.link_count() << " links in " << f.shrink_attempts
        << " attempts): " << f.result.message << "\n";
  }
  return 1;
}

int dispatch(int argc, char** argv, std::ostream& out) {
  if (argc < 2) {
    print_usage(out);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "help") {
    print_usage(out);
    return 0;
  }
  Flags flags(argc - 1, argv + 1);
  int rc;
  if (command == "topology") {
    rc = cmd_topology(flags, out);
  } else if (command == "select") {
    rc = cmd_select(flags, out);
  } else if (command == "evaluate") {
    rc = cmd_evaluate(flags, out);
  } else if (command == "learn") {
    rc = cmd_learn(flags, out);
  } else if (command == "localize") {
    rc = cmd_localize(flags, out);
  } else if (command == "localize-node") {
    rc = cmd_localize_node(flags, out);
  } else if (command == "infer") {
    rc = cmd_infer(flags, out);
  } else if (command == "pipeline") {
    rc = cmd_pipeline(flags, out);
  } else if (command == "serve") {
    rc = cmd_serve(flags, out);
  } else if (command == "client") {
    rc = cmd_client(flags, std::cin, out);
  } else if (command == "fuzz") {
    rc = cmd_fuzz(flags, out);
  } else {
    out << "unknown command: " << command << "\n";
    print_usage(out);
    return 1;
  }
  flags.finish();
  return rc;
}

}  // namespace rnt::cli
