#include "service/service.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "boolnt/identifiability.h"
#include "boolnt/localize.h"
#include "exp/metrics.h"
#include "infer/inference.h"
#include "tomo/localization.h"

namespace rnt::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Pins glibc's mmap and trim thresholds, once per process.  Left
/// dynamic, glibc raises both the first time it frees a block above the
/// current mmap threshold (128 KB at start), such as a select's
/// per-request buffers or a torn-down deployment's engine tables, and
/// from then on each worker's arena keeps up to twice that size of freed
/// memory resident.  How much it keeps depends on which worker built or
/// served what, so the server's resident peak on one request script
/// varies from run to run.  Pinned, blocks below 4 MB stay in the
/// arenas, as they do once the dynamic threshold has risen; an arena
/// returns free memory once its top passes 2 MB and keeps 1 MB of it, so
/// a select's per-request buffers (up to 1.1 MB) do not fault in fresh
/// pages on every request.
void pin_allocator_thresholds() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    ::mallopt(M_MMAP_THRESHOLD, 4 << 20);
    ::mallopt(M_TRIM_THRESHOLD, 2 << 20);
    ::mallopt(M_TOP_PAD, 1 << 20);
  });
#endif
}

/// Workload parameters shared by every compute verb; defaults mirror the
/// rnt_cli commands so a service reply matches the one-shot CLI answer.
WorkloadKey key_from(const Request& request) {
  WorkloadKey key;
  key.topology = request.get("as", "");
  key.nodes = request.get_count("nodes", 87);
  key.links = request.get_count("links", 161);
  key.candidate_paths = request.get_count("paths", 400);
  key.seed = static_cast<std::uint64_t>(request.get_int("seed", 1));
  key.intensity = request.get_double("intensity", 5.0);
  key.unit_costs = request.get_bool("unit-costs", false);
  return key;
}

/// A count parameter that must be positive; zero is answered with
/// "<verb>: <key> must be positive".
std::size_t positive_count(const Request& request, const std::string& key,
                           std::size_t def, const std::string& verb) {
  const std::size_t n = request.get_count(key, def);
  if (n == 0) {
    throw std::invalid_argument(verb + ": " + key + " must be positive");
  }
  return n;
}

/// A scenario-count parameter: positive, and at most `cap`; a larger value
/// is answered with "<verb>: <key> must be at most <cap>".
std::size_t capped_count(const Request& request, const std::string& key,
                         std::size_t def, std::size_t cap,
                         const std::string& verb) {
  const std::size_t n = positive_count(request, key, def, verb);
  if (n > cap) {
    throw std::invalid_argument(verb + ": " + key + " must be at most " +
                                std::to_string(cap));
  }
  return n;
}

/// The probing budget a request names: budget-frac (default 0.3) of the
/// cost of probing every path.  A budget that is not finite or is negative
/// is rejected, so NaN cannot slip past the selectors' budget tests.
double request_budget(const Request& request, const exp::Workload& w) {
  const double budget = request.get_double("budget-frac", 0.3) * total_cost(w);
  if (!std::isfinite(budget) || budget < 0.0) {
    throw std::invalid_argument(
        "budget-frac must give a finite, non-negative budget");
  }
  return budget;
}

std::vector<std::size_t> parse_subset(const std::string& csv,
                                      std::size_t path_count) {
  std::vector<std::size_t> subset;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    std::size_t used = 0;
    const unsigned long long value = std::stoull(token, &used);
    if (used != token.size() || value >= path_count) {
      throw std::invalid_argument("subset: bad path index '" + token + "'");
    }
    subset.push_back(static_cast<std::size_t>(value));
  }
  if (subset.empty()) {
    throw std::invalid_argument("subset: no path indices given");
  }
  return subset;
}

/// Parses a CSV of 0/1 probe fates; must have exactly `expected` entries.
std::vector<bool> parse_flags(const std::string& csv, std::size_t expected) {
  std::vector<bool> flags;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    if (token == "1") {
      flags.push_back(true);
    } else if (token == "0") {
      flags.push_back(false);
    } else {
      throw std::invalid_argument("delivered: bad flag '" + token +
                                  "' (want 0 or 1)");
    }
  }
  if (flags.size() != expected) {
    throw std::invalid_argument(
        "delivered: got " + std::to_string(flags.size()) + " flags for " +
        std::to_string(expected) + " paths");
  }
  return flags;
}

std::string join_subset(const std::vector<std::size_t>& subset) {
  std::string csv;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(subset[i]);
  }
  return csv;
}

/// The probe subset a request talks about: an explicit `subset=` list, or
/// the output of a selection algorithm at the requested budget.
std::vector<std::size_t> resolve_subset(const Request& request,
                                        const CachedWorkload& cw) {
  const std::string explicit_subset = request.get("subset", "");
  if (!explicit_subset.empty()) {
    // Consume (and check) the selection parameters anyway so they are not
    // "unknown".
    request.get("algorithm", "");
    request.get("optimizer", "");
    request.get("kernel", "");
    request_budget(request, cw.workload);
    return parse_subset(explicit_subset, cw.workload.system->path_count());
  }
  const std::string algorithm = request.get("algorithm", "prob-rome");
  const std::string optimizer = request.get("optimizer", "rome");
  const double budget = request_budget(request, cw.workload);
  const core::KernelMode kernel =
      core::parse_kernel_mode(request.get("kernel", "auto"));
  return run_algorithm(cw, algorithm, optimizer, budget, kernel).paths;
}

}  // namespace

PipelineSession::PipelineSession(std::shared_ptr<const CachedWorkload> cw)
    : workload(std::move(cw)),
      estimator(workload->workload.system->link_count()),
      drift(workload->workload.system->link_count()),
      replanner(*workload->workload.system, workload->workload.costs) {}

Service::Service(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity),
      pool_(config.threads) {
  pin_allocator_thresholds();
}

std::size_t Service::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::size_t Service::sweep_count() const {
  std::lock_guard<std::mutex> lock(sweeps_mu_);
  return sweeps_.size();
}

std::shared_ptr<PipelineSession> Service::session_for(const WorkloadKey& key) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(key);
    if (it != sessions_.end()) return it->second;
  }
  // Build (or fetch) the workload outside the sessions lock — a first
  // build can take seconds and must not stall unrelated sessions.
  auto cw = cache_.get(key);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto [it, inserted] = sessions_.try_emplace(key, nullptr);
  if (inserted) {
    it->second = std::make_shared<PipelineSession>(std::move(cw));
  }
  return it->second;
}

Response Service::handle(const Request& request) {
  const auto start = Clock::now();
  Response response;
  try {
    response = dispatch(request);
    request.finish();
  } catch (const std::exception& e) {
    response = Response::failure(e.what());
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  metrics_.record(request.type, response.ok, seconds);
  return response;
}

Response Service::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    return Response::failure(e.what());
  }
  return handle(request);
}

std::future<Response> Service::submit(Request request) {
  return pool_.submit(
      [this, request = std::move(request)] { return handle(request); });
}

std::future<Response> Service::submit_line(std::string line) {
  return pool_.submit(
      [this, line = std::move(line)] { return handle_line(line); });
}

void Service::submit_line(std::string line,
                          std::function<void(Response)> done) {
  pool_.submit([this, line = std::move(line), done = std::move(done)] {
    done(handle_line(line));
  });
}

Response Service::dispatch(const Request& request) {
  switch (request.type) {
    case RequestType::kPing: {
      Response r;
      r.set("pong", std::size_t{1});
      return r;
    }
    case RequestType::kShutdown: {
      // The server front end acts on the verb; in-process callers just get
      // an acknowledgement.
      Response r;
      r.set("shutting-down", std::size_t{1});
      return r;
    }
    case RequestType::kStats: {
      const ServiceMetrics::Snapshot m = metrics_.snapshot();
      const WorkloadCache::Counters c = cache_.counters();
      Response r;
      r.set("requests", m.requests);
      r.set("errors", m.errors);
      for (const auto& [verb, count] : m.by_verb) {
        r.set("count-" + verb, count);
      }
      r.set("latency-min-ms", m.latency_min_ms);
      r.set("latency-mean-ms", m.latency_mean_ms);
      r.set("latency-p50-ms", m.latency_p50_ms);
      r.set("latency-p95-ms", m.latency_p95_ms);
      r.set("latency-p99-ms", m.latency_p99_ms);
      r.set("cache-hits", c.hits);
      r.set("cache-misses", c.misses);
      r.set("cache-evictions", c.evictions);
      r.set("cache-size", c.size);
      r.set("cache-hit-rate", c.hit_rate());
      r.set("sessions", session_count());
      r.set("sweeps", sweep_count());
      r.set("transport-errors", m.transport_errors);
      r.set("threads", pool_.size());
      r.set("open-connections", m.open_connections);
      r.set("queue-depth", m.queue_depth);
      r.set("shed-requests", m.shed_requests);
      r.set("shed-connections", m.shed_connections);
      r.set("idle-timeouts", m.idle_timeouts);
      r.set("pipelined-requests", m.pipelined_requests);
      r.set("infer-requests", m.infer_requests);
      r.set("infer-solve-p50-ms", m.infer_solve_p50_ms);
      r.set("infer-solve-p95-ms", m.infer_solve_p95_ms);
      return r;
    }
    case RequestType::kSelect: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::string algorithm = request.get("algorithm", "prob-rome");
      const std::string optimizer = request.get("optimizer", "rome");
      const double budget = request_budget(request, w);
      const core::KernelMode kernel =
          core::parse_kernel_mode(request.get("kernel", "auto"));
      const core::Selection sel =
          run_algorithm(*cw, algorithm, optimizer, budget, kernel);
      Response r;
      r.set("workload", w.topology_name);
      r.set("algorithm", algorithm);
      r.set("optimizer", optimizer);
      r.set("budget", budget);
      r.set("selected", sel.size());
      r.set("cost", sel.cost);
      r.set("objective", sel.objective);
      r.set("rank", w.system->rank_of(sel.paths));
      r.set("paths", join_subset(sel.paths));
      return r;
    }
    case RequestType::kErEval: {
      exp::EvalOptions opts;
      opts.scenarios = capped_count(request, "scenarios", 200,
                                    kMaxErEvalScenarios, "er-eval");
      opts.identifiability = false;
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      Rng rng = w.eval_rng();
      const auto eval =
          exp::evaluate_selection(*w.system, subset, *w.failures, opts, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("no-failure-rank", eval.no_failure_rank);
      r.set("rank-mean", eval.rank.stats.mean());
      r.set("rank-std", eval.rank.stats.stddev());
      r.set("rank-p10", eval.rank.distribution.quantile(0.1));
      r.set("prob-er", cw->prob_bound.evaluate(subset));
      if (request.get("engine", "") == "kernel") {
        // The cached bit-packed MC engine: repeated ER queries against the
        // same workload hit its mask-to-rank memo instead of eliminating.
        r.set("kernel-er",
              cw->kernel_engine(
                    50, core::parse_kernel_mode(request.get("kernel", "auto")))
                  .evaluate(subset));
      }
      return r;
    }
    case RequestType::kIdentifiability: {
      exp::EvalOptions opts;
      opts.scenarios =
          capped_count(request, "scenarios", 200,
                       kMaxIdentifiabilityScenarios, "identifiability");
      opts.identifiability = true;
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      Rng rng = w.eval_rng();
      const auto eval =
          exp::evaluate_selection(*w.system, subset, *w.failures, opts, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("links", w.system->link_count());
      r.set("identifiable", eval.no_failure_identifiability);
      r.set("identifiable-mean", eval.identifiability.stats.mean());
      r.set("identifiable-std", eval.identifiability.stats.stddev());
      return r;
    }
    case RequestType::kFeed: {
      const auto session = session_for(key_from(request));
      // `subset=` names the probed paths (the `paths=` key is taken by the
      // workload's candidate-path count, as in every other verb).
      const std::string subset_csv = request.get("subset", "");
      Response r;
      std::lock_guard<std::mutex> lock(session->mu);
      const tomo::PathSystem& system = *session->workload->workload.system;
      bool drifted = false;
      if (subset_csv.empty()) {
        // Direct telemetry: one link observed up or down `count` times.
        if (!request.get("delivered", "").empty()) {
          throw std::invalid_argument(
              "feed: delivered= requires a subset= of probed paths");
        }
        const std::int64_t link = request.get_int("link", -1);
        if (link < 0 ||
            static_cast<std::size_t>(link) >= system.link_count()) {
          throw std::invalid_argument(
              "feed: link out of range (links=" +
              std::to_string(system.link_count()) + "): " +
              std::to_string(link));
        }
        const bool failed = request.get_bool("failed", false);
        const std::int64_t count = request.get_int("count", 1);
        if (count <= 0) {
          throw std::invalid_argument("feed: count must be positive");
        }
        session->estimator.observe_link(static_cast<std::size_t>(link),
                                        failed,
                                        static_cast<double>(count));
      } else {
        // One epoch of probe outcomes down an explicit path subset.  The
        // two feed forms are exclusive; reject a mix before any state
        // changes so a failed feed never advances the estimator.
        if (!request.get("link", "").empty() ||
            !request.get("failed", "").empty() ||
            !request.get("count", "").empty()) {
          throw std::invalid_argument(
              "feed: give subset=/delivered= or link=/failed=/count=, "
              "not both");
        }
        const std::vector<std::size_t> subset =
            parse_subset(subset_csv, system.path_count());
        const std::vector<bool> delivered =
            parse_flags(request.get("delivered", ""), subset.size());
        session->estimator.observe_epoch(system, subset, delivered);
        if (session->drift.observe(session->estimator.probabilities())) {
          ++session->drift_triggers;
          drifted = true;
        }
      }
      ++session->feeds;
      r.set("fed", std::size_t{1});
      r.set("epochs", session->estimator.epochs());
      r.set("drift", std::size_t{drifted ? 1u : 0u});
      r.set("divergence", session->drift.divergence());
      return r;
    }
    case RequestType::kReplan: {
      const auto session = session_for(key_from(request));
      const exp::Workload& w = session->workload->workload;
      const double budget = request_budget(request, w);
      std::lock_guard<std::mutex> lock(session->mu);
      const failures::FailureModel model = session->estimator.model();
      const core::ProbBoundEr engine(*w.system, model);
      online::ReplanStats stats;
      const core::Selection sel =
          session->replanner.replan(engine, budget, &stats);
      session->drift.rearm(session->estimator.probabilities());
      ++session->replans;
      Response r;
      r.set("workload", w.topology_name);
      r.set("budget", budget);
      r.set("selected", sel.size());
      r.set("cost", sel.cost);
      r.set("objective", sel.objective);
      r.set("rank", w.system->rank_of(sel.paths));
      r.set("paths", join_subset(sel.paths));
      r.set("warm", std::size_t{stats.warm ? 1u : 0u});
      r.set("reused", stats.reused);
      r.set("gain-evals", stats.rome.gain_evaluations);
      return r;
    }
    case RequestType::kPipelineStats: {
      const auto session = session_for(key_from(request));
      std::lock_guard<std::mutex> lock(session->mu);
      const std::vector<double> estimate =
          session->estimator.probabilities();
      double mean_estimate = 0.0;
      for (const double p : estimate) mean_estimate += p;
      if (!estimate.empty()) {
        mean_estimate /= static_cast<double>(estimate.size());
      }
      Response r;
      r.set("workload", session->workload->workload.topology_name);
      r.set("feeds", session->feeds);
      r.set("epochs", session->estimator.epochs());
      r.set("replans", session->replans);
      r.set("drift-triggers", session->drift_triggers);
      r.set("divergence", session->drift.divergence());
      r.set("mean-estimate", mean_estimate);
      r.set("selected", session->replanner.current().size());
      return r;
    }
    case RequestType::kHeartbeat: {
      const ServiceMetrics::Snapshot m = metrics_.snapshot();
      Response r;
      r.set("alive", std::size_t{1});
      r.set("requests", m.requests);
      r.set("sweeps", sweep_count());
      return r;
    }
    case RequestType::kShardEval: {
      const auto runs =
          capped_count(request, "runs", 50, kMaxErEvalScenarios, "shard-eval");
      const auto cw = cache_.get(key_from(request));
      const core::KernelErEngine& engine = cw->kernel_engine(
          runs, core::parse_kernel_mode(request.get("kernel", "auto")));
      const std::vector<std::size_t> subset = parse_subset(
          request.get("subset", ""), cw->workload.system->path_count());
      const std::int64_t begin = request.get_int("begin", 0);
      const std::int64_t end = request.get_int(
          "end", static_cast<std::int64_t>(engine.scenario_count()));
      if (begin < 0 || end < begin ||
          static_cast<std::size_t>(end) > engine.scenario_count()) {
        throw std::invalid_argument("shard-eval: bad scenario range");
      }
      const std::vector<std::size_t> ranks =
          engine.slice_ranks(subset, static_cast<std::size_t>(begin),
                             static_cast<std::size_t>(end));
      Response r;
      r.set("begin", static_cast<std::size_t>(begin));
      r.set("end", static_cast<std::size_t>(end));
      r.set("ranks", join_subset(ranks));
      return r;
    }
    case RequestType::kShardSweep:
      return handle_shard_sweep(request);
    case RequestType::kLocalize: {
      const auto trials = positive_count(request, "scenarios", 300, "localize");
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      Rng rng = w.eval_rng();
      const auto score = tomo::score_localization(*w.system, subset,
                                                  *w.failures, trials, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("trials", score.trials);
      r.set("exact", score.exact);
      r.set("ambiguous", score.ambiguous);
      r.set("invisible", score.invisible);
      r.set("mean-candidates", score.mean_candidates);
      r.set("exact-fraction", score.exact_fraction());
      return r;
    }
    case RequestType::kLocalizeNode: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      const std::string family = request.get("family", "node");
      boolnt::HypothesisSpace space =
          family == "link"
              ? boolnt::HypothesisSpace::links_of(w.system->link_count())
              : boolnt::HypothesisSpace::nodes_of(w.graph);
      if (family != "node" && family != "link") {
        throw std::invalid_argument(
            "localize-node: family must be node or link");
      }
      const auto k = positive_count(request, "k", 2, "localize-node");
      const auto trials = capped_count(request, "scenarios", 300,
                                       kMaxLocalizeNodeScenarios,
                                       "localize-node");
      const auto ident_cap = request.get_count("ident-cap", 0);
      Rng rng = w.eval_rng();
      const auto score = boolnt::score_multi_localization(
          *w.system, subset, space, k, trials, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("components", space.component_count());
      r.set("k", k);
      r.set("trials", score.trials);
      r.set("exact", score.exact);
      r.set("ambiguous", score.ambiguous);
      r.set("misled", score.misled);
      r.set("invisible", score.invisible);
      r.set("mean-candidates", score.mean_candidates);
      r.set("exact-fraction", score.exact_fraction());
      r.set("hit-fraction", score.hit_fraction());
      if (ident_cap > 0) {
        const auto report = boolnt::identifiability_report(
            *w.system, subset, space, ident_cap);
        r.set("ident-cap", report.k_cap);
        r.set("max-identifiable", report.max_identifiable);
        std::size_t min_component = report.k_cap;
        for (const std::size_t level : report.per_component) {
          min_component = std::min(min_component, level);
        }
        r.set("min-component-ident", min_component);
      }
      return r;
    }
    case RequestType::kInfer: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      infer::InferenceConfig config;
      config.model =
          infer::parse_measurement_model(request.get("model", "delay"));
      config.noise_std = request.get_double("noise", 0.05);
      if (!std::isfinite(config.noise_std) || config.noise_std < 0.0) {
        throw std::invalid_argument(
            "infer: noise must be finite and non-negative");
      }
      config.scenarios = capped_count(request, "scenarios", 200,
                                      kMaxInferScenarios, "infer");
      // One solver worker: handler concurrency already comes from the
      // request pool, and threads=1 keeps per-request latency honest.
      config.threads = 1;
      const infer::GroundTruth truth = infer::campaign_truth(
          config.model, w.system->link_count(), w.seed, config.truth);
      const auto solve_start = Clock::now();
      const infer::InferenceReport report = infer::run_inference(
          *w.system, subset, *w.failures, truth, config, w.seed);
      metrics_.record_infer_solve(
          std::chrono::duration<double>(Clock::now() - solve_start).count());
      Response r;
      r.set("workload", w.topology_name);
      r.set("model", infer::to_string(config.model));
      r.set("paths", subset.size());
      r.set("scenarios", report.scenarios);
      r.set("solved", report.solved);
      r.set("converged", report.converged);
      r.set("coverage-mean", report.coverage.mean());
      r.set("network-mse-mean", report.network_mse.mean());
      r.set("identifiable-mean", report.identifiable.mean());
      r.set("mse-mean", report.mse.count() > 0 ? report.mse.mean() : 0.0);
      r.set("mae-mean", report.mean_abs_error.count() > 0
                            ? report.mean_abs_error.mean()
                            : 0.0);
      r.set("residual-mean", report.residual.mean());
      r.set("iterations-mean", report.iterations.mean());
      return r;
    }
  }
  throw std::logic_error("Service::dispatch: unhandled request type");
}

Response Service::handle_shard_sweep(const Request& request) {
  const std::string op = request.get("op", "");
  const std::string sweep = request.get("sweep", "");
  if (sweep.empty()) {
    throw std::invalid_argument("shard-sweep: sweep= id required");
  }
  const std::int64_t begin = request.get_int("begin", -1);
  const std::int64_t end = request.get_int("end", -1);
  if (begin < 0 || end < begin) {
    throw std::invalid_argument("shard-sweep: bad begin=/end= slice");
  }
  // Sessions are keyed by id *and* slice, so two slices of one sweep on
  // the same service stay independent.
  const std::string key = sweep + "/" + std::to_string(begin) + "-" +
                          std::to_string(end);

  if (op == "init") {
    const auto runs = capped_count(request, "runs", 50, kMaxErEvalScenarios,
                                   "shard-sweep");
    const auto cw = cache_.get(key_from(request));
    const core::KernelErEngine& engine = cw->kernel_engine(
        runs, core::parse_kernel_mode(request.get("kernel", "auto")));
    if (static_cast<std::size_t>(end) > engine.scenario_count()) {
      throw std::invalid_argument("shard-sweep: slice exceeds scenario count");
    }
    auto session = std::make_shared<SweepSession>();
    session->workload = cw;
    session->shard = engine.make_shard_accumulator(
        static_cast<std::size_t>(begin), static_cast<std::size_t>(end));
    // Replay the committed selection so a re-created session holds the
    // exact basis state of the one it replaces.
    const std::string committed_csv = request.get("committed", "");
    if (!committed_csv.empty()) {
      for (std::size_t p :
           parse_subset(committed_csv, cw->workload.system->path_count())) {
        session->add_bits[p] =
            encode_bits(session->shard->add(p));
        session->committed.push_back(p);
      }
    }
    const std::size_t replayed = session->committed.size();
    std::lock_guard<std::mutex> lock(sweeps_mu_);
    if (!sweeps_.contains(key) &&
        sweeps_.size() >= config_.max_sweep_sessions) {
      throw std::invalid_argument("shard-sweep: too many live sweep sessions");
    }
    sweeps_[key] = std::move(session);  // Re-init replaces (idempotent).
    Response r;
    r.set("ready", std::size_t{1});
    r.set("committed", replayed);
    return r;
  }

  if (op == "end") {
    std::lock_guard<std::mutex> lock(sweeps_mu_);
    const std::size_t erased = sweeps_.erase(key);
    Response r;
    r.set("ended", erased);
    return r;
  }

  if (op != "probe" && op != "add") {
    throw std::invalid_argument(
        "shard-sweep: op must be init, probe, add or end");
  }
  std::shared_ptr<SweepSession> session;
  {
    std::lock_guard<std::mutex> lock(sweeps_mu_);
    const auto it = sweeps_.find(key);
    if (it == sweeps_.end()) {
      throw std::invalid_argument("shard-sweep: unknown session " + key);
    }
    session = it->second;
  }
  const std::int64_t path = request.get_int("path", -1);
  const std::size_t path_count =
      session->workload->workload.system->path_count();
  if (path < 0 || static_cast<std::size_t>(path) >= path_count) {
    throw std::invalid_argument("shard-sweep: path out of range");
  }
  const auto p = static_cast<std::size_t>(path);
  std::lock_guard<std::mutex> lock(session->mu);
  Response r;
  if (op == "probe") {
    r.set("bits", encode_bits(session->shard->probe(p)));
  } else {
    // Idempotent add: a retry of a delivered-but-unacknowledged add must
    // not commit the path twice (the second try_add would flip the bits).
    const auto it = session->add_bits.find(p);
    if (it != session->add_bits.end()) {
      r.set("bits", it->second);
    } else {
      const std::string bits = encode_bits(session->shard->add(p));
      session->add_bits.emplace(p, bits);
      session->committed.push_back(p);
      r.set("bits", bits);
    }
  }
  return r;
}

std::string Service::summary() const {
  const ServiceMetrics::Snapshot m = metrics_.snapshot();
  const WorkloadCache::Counters c = cache_.counters();
  std::ostringstream out;
  out << "service summary\n";
  out << "  requests:  " << m.requests << " (" << m.errors << " errors, "
      << m.transport_errors << " transport errors)\n";
  for (const auto& [verb, count] : m.by_verb) {
    out << "    " << verb << ": " << count << "\n";
  }
  out << "  latency:   min " << m.latency_min_ms << " ms, mean "
      << m.latency_mean_ms << " ms, p50 " << m.latency_p50_ms << " ms, p95 "
      << m.latency_p95_ms << " ms, p99 " << m.latency_p99_ms << " ms\n";
  out << "  cache:     " << c.hits << " hits / " << c.misses
      << " misses (hit rate " << c.hit_rate() << "), " << c.size
      << " resident, " << c.evictions << " evictions\n";
  out << "  sessions:  " << session_count() << " adaptive, " << sweep_count()
      << " sweep\n";
  return out.str();
}

}  // namespace rnt::service
