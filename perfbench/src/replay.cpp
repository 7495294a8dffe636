#include "replay.h"

#include <chrono>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "boolnt/identifiability.h"
#include "boolnt/localize.h"
#include "core/selectors/selector.h"
#include "exp/metrics.h"
#include "failures/failure_model.h"
#include "graph/isp_topology.h"
#include "infer/inference.h"
#include "online/drift_detector.h"
#include "online/link_estimator.h"
#include "online/replanner.h"
#include "service/service.h"
#include "tomo/cost_model.h"
#include "tomo/localization.h"
#include "tomo/monitors.h"

namespace perfbench {

namespace core = rnt::core;
using service::Request;
using service::RequestType;
using service::Response;

namespace {

/// Names of the leaf timings one wrapped engine reports.
struct EngineNames {
  const char* gain;
  const char* add;
  const char* evaluate;
  const char* accumulator;  ///< make_accumulator().
};

constexpr EngineNames kProbBound = {
    "core.probbound.gain", "core.probbound.add", "core.probbound.evaluate",
    "core.probbound.accumulator"};
constexpr EngineNames kKernelCold = {
    "core.kernel.gain_cold", "core.kernel.add", "core.kernel.evaluate",
    "core.kernel.accumulator"};
constexpr EngineNames kKernelWarm = {
    "core.kernel.gain_warm", "core.kernel.add", "core.kernel.evaluate",
    "core.kernel.accumulator"};

class TimedAccumulator : public core::ErAccumulator {
 public:
  TimedAccumulator(std::unique_ptr<core::ErAccumulator> inner, Tracer* t,
                   const EngineNames& names)
      : inner_(std::move(inner)), tracer_(t), names_(names) {}

  double gain(std::size_t path) const override {
    if (!tracer_) return inner_->gain(path);
    const std::int64_t t0 = Tracer::now_ns();
    const double g = inner_->gain(path);
    tracer_->leaf(names_.gain, Tracer::now_ns() - t0);
    return g;
  }
  void add(std::size_t path) override {
    if (!tracer_) return inner_->add(path);
    const std::int64_t t0 = Tracer::now_ns();
    inner_->add(path);
    tracer_->leaf(names_.add, Tracer::now_ns() - t0);
  }
  double value() const override { return inner_->value(); }
  std::size_t gain_computations() const override {
    return inner_->gain_computations();
  }

 private:
  std::unique_ptr<core::ErAccumulator> inner_;
  Tracer* tracer_;
  EngineNames names_;
};

/// Forwarding engine that times evaluate() and its accumulators' calls.
class TimedEngine : public core::ErEngine {
 public:
  TimedEngine(const core::ErEngine& inner, Tracer* t, const EngineNames& n)
      : inner_(inner), tracer_(t), names_(n) {}

  double evaluate(const std::vector<std::size_t>& subset) const override {
    if (!tracer_) return inner_.evaluate(subset);
    const std::int64_t t0 = Tracer::now_ns();
    const double v = inner_.evaluate(subset);
    tracer_->leaf(names_.evaluate, Tracer::now_ns() - t0);
    return v;
  }
  std::unique_ptr<core::ErAccumulator> make_accumulator() const override {
    const std::int64_t t0 = tracer_ ? Tracer::now_ns() : 0;
    auto inner = inner_.make_accumulator();
    if (tracer_) tracer_->leaf(names_.accumulator, Tracer::now_ns() - t0);
    return std::make_unique<TimedAccumulator>(std::move(inner), tracer_,
                                              names_);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const core::ErEngine& inner_;
  Tracer* tracer_;
  EngineNames names_;
};

// The helpers below repeat service.cpp's request parsing so the replay
// answers exactly what the server answers.

service::WorkloadKey key_from(const Request& request) {
  service::WorkloadKey key;
  key.topology = request.get("as", "");
  key.nodes = static_cast<std::size_t>(request.get_int("nodes", 87));
  key.links = static_cast<std::size_t>(request.get_int("links", 161));
  key.candidate_paths =
      static_cast<std::size_t>(request.get_int("paths", 400));
  key.seed = static_cast<std::uint64_t>(request.get_int("seed", 1));
  key.intensity = request.get_double("intensity", 5.0);
  key.unit_costs = request.get_bool("unit-costs", false);
  return key;
}

double total_cost(const rnt::exp::Workload& w) {
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return w.costs.subset_cost(*w.system, all);
}

std::vector<std::size_t> parse_csv(const std::string& csv) {
  std::vector<std::size_t> out;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(std::stoull(token));
  }
  return out;
}

std::vector<std::size_t> subset_of(const Request& request) {
  const std::string csv = request.get("subset", "");
  if (csv.empty()) throw std::invalid_argument("replay: subset= required");
  return parse_csv(csv);
}

std::string join(const std::vector<std::size_t>& v) {
  std::string csv;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(v[i]);
  }
  return csv;
}

}  // namespace

struct Replayer::Deployment {
  rnt::exp::Workload workload;
  std::unique_ptr<core::ProbBoundEr> prob_bound;
  std::map<std::pair<std::size_t, core::KernelMode>,
           std::unique_ptr<core::KernelErEngine>>
      kernels;
  std::set<const core::KernelErEngine*> warmed;  ///< Selected on before.
};

struct Replayer::Session {
  explicit Session(std::shared_ptr<Deployment> d)
      : deployment(std::move(d)),
        estimator(deployment->workload.system->link_count()),
        drift(deployment->workload.system->link_count()),
        replanner(*deployment->workload.system, deployment->workload.costs) {}

  std::shared_ptr<Deployment> deployment;
  rnt::online::LinkEstimator estimator;
  rnt::online::DriftDetector drift;
  rnt::online::Replanner replanner;
  std::size_t feeds = 0;
  std::size_t replans = 0;
  std::size_t drift_triggers = 0;
};

struct Replayer::Sweep {
  std::shared_ptr<Deployment> deployment;
  std::unique_ptr<core::KernelShardAccumulator> shard;
  std::map<std::size_t, std::string> add_bits;
};

Replayer::Replayer(Tracer* tracer) : tracer_(tracer) {}

Replayer::~Replayer() = default;

std::uint64_t Replayer::memo_entries() const {
  std::uint64_t n = 0;
  for (const auto& [key, entry] : cache_) {
    for (const auto& [slot, engine] : entry.first->kernels) {
      n += engine->rank_memo_entries(engine->resolved_kernel_mode());
    }
  }
  return n;
}

std::shared_ptr<Replayer::Deployment> Replayer::build(
    const service::WorkloadKey& key) {
  // exp::make_workload, one layer call at a time on the same Rng.
  auto d = std::make_shared<Deployment>();
  rnt::exp::Workload& w = d->workload;
  {
    Span build(tracer_, "exp.workload.build");
    const rnt::graph::IspTopology topology =
        rnt::graph::parse_isp_topology(key.topology);
    rnt::Rng rng(key.seed);
    w.topology_name = rnt::graph::isp_profile(topology).name;
    w.seed = key.seed;
    {
      Span s(tracer_, "graph.build");
      w.graph = rnt::graph::build_isp_topology(topology, rng);
    }
    {
      Span s(tracer_, "tomo.paths");
      w.system = std::make_unique<rnt::tomo::PathSystem>(
          rnt::tomo::build_path_system(w.graph, key.candidate_paths, rng,
                                       &w.monitors));
    }
    {
      Span s(tracer_, "failures.model");
      w.failures = std::make_unique<rnt::failures::FailureModel>(
          rnt::failures::markopoulou_model(w.graph.edge_count(), rng,
                                           key.intensity));
    }
    {
      Span s(tracer_, "tomo.costs");
      w.costs = key.unit_costs
                    ? rnt::tomo::CostModel::unit()
                    : rnt::tomo::CostModel::paper_model(w.monitors, rng);
    }
  }
  Span s(tracer_, "core.probbound.build");
  d->prob_bound =
      std::make_unique<core::ProbBoundEr>(*w.system, *w.failures);
  return d;
}

std::shared_ptr<Replayer::Deployment> Replayer::cache_get(
    const service::WorkloadKey& key) {
  if (key.topology.empty()) {
    throw std::invalid_argument("replay: custom topologies not supported");
  }
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    Span s(tracer_, "service.cache.hit");
    ++counts_.cache_hits;
    lru_.splice(lru_.begin(), lru_, it->second.second);
    return it->second.first;
  }
  Span s(tracer_, "service.cache.miss");
  ++counts_.cache_misses;
  std::shared_ptr<Deployment> d = build(key);
  lru_.push_front(key);
  cache_[key] = {d, lru_.begin()};
  // The service's LRU bound (ServiceConfig::cache_capacity).
  while (cache_.size() > service::ServiceConfig{}.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++counts_.cache_evictions;
  }
  return d;
}

const core::KernelErEngine& Replayer::kernel_engine(Deployment& d,
                                                    std::size_t runs,
                                                    core::KernelMode mode) {
  auto& slot = d.kernels[{runs, mode}];
  if (!slot) {
    {
      Span s(tracer_, "core.kernel.build");
      rnt::Rng rng(d.workload.seed * 101);
      slot = std::make_unique<core::KernelErEngine>(
          core::KernelErEngine::monte_carlo(*d.workload.system,
                                            *d.workload.failures, runs, rng));
      slot->set_kernel_mode(mode);
    }
    Span s(tracer_, "core.kernel.classes");
    counts_.kernel_classes += slot->scenario_classes().count();
  }
  return *slot;
}

std::shared_ptr<Replayer::Session> Replayer::session_for(
    const service::WorkloadKey& key) {
  const auto it = sessions_.find(key);
  if (it != sessions_.end()) return it->second;
  auto session = std::make_shared<Session>(cache_get(key));
  sessions_.emplace(key, session);
  return session;
}

std::string Replayer::handle(const std::string& line) {
  Span root(tracer_, "request");
  Request request;
  Response response;
  bool parsed = true;
  {
    Span s(tracer_, "service.protocol.parse");
    try {
      request = service::parse_request(line);
    } catch (const std::exception& e) {
      response = Response::failure(e.what());
      parsed = false;
    }
  }
  if (parsed) {
    Span s(tracer_, "service.handle");
    const auto start = std::chrono::steady_clock::now();
    try {
      response = dispatch(request);
    } catch (const std::exception& e) {
      response = Response::failure(e.what());
    }
    metrics_.record(request.type, response.ok,
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  Span s(tracer_, "service.protocol.format");
  return service::format_response(response);
}

Response Replayer::select(const Request& request) {
  const std::shared_ptr<Deployment> d = cache_get(key_from(request));
  const rnt::exp::Workload& w = d->workload;
  const std::string algorithm = request.get("algorithm", "prob-rome");
  const std::string optimizer = request.get("optimizer", "rome");
  const double budget =
      request.get_double("budget-frac", 0.3) * total_cost(w);
  const core::KernelMode mode =
      core::parse_kernel_mode(request.get("kernel", "auto"));

  const core::ErEngine* engine = nullptr;
  const core::KernelErEngine* kernel = nullptr;
  EngineNames names = kProbBound;
  if (algorithm == "prob-rome") {
    engine = d->prob_bound.get();
  } else if (algorithm == "kernel-rome") {
    kernel = &kernel_engine(*d, 50, mode);
    engine = kernel;
    names = d->warmed.contains(kernel) ? kKernelWarm : kKernelCold;
  } else {
    throw std::invalid_argument("replay: unsupported algorithm " + algorithm);
  }
  const TimedEngine timed(*engine, tracer_, names);
  core::SelectorOptions options;
  options.seed = w.seed;
  core::SelectorStats stats;
  core::Selection sel;
  {
    Span s(tracer_, "core.selectors");
    sel = core::make_selector(optimizer, options)
              ->select(*w.system, w.costs, budget, timed, &stats);
  }
  if (kernel) d->warmed.insert(kernel);
  counts_.gain_evals += stats.gain_evaluations;
  counts_.evaluate_calls += stats.evaluate_calls;
  std::size_t rank = 0;
  {
    Span s(tracer_, "tomo.rank_of");
    rank = w.system->rank_of(sel.paths);
  }
  Response r;
  r.set("workload", w.topology_name);
  r.set("algorithm", algorithm);
  r.set("optimizer", optimizer);
  r.set("budget", budget);
  r.set("selected", sel.size());
  r.set("cost", sel.cost);
  r.set("objective", sel.objective);
  r.set("rank", rank);
  r.set("paths", join(sel.paths));
  return r;
}

Response Replayer::dispatch(const Request& request) {
  switch (request.type) {
    case RequestType::kPing: {
      Response r;
      r.set("pong", std::size_t{1});
      return r;
    }
    case RequestType::kStats:
    case RequestType::kHeartbeat: {
      service::ServiceMetrics::Snapshot m;
      {
        Span s(tracer_, "service.stats");
        m = metrics_.snapshot();
      }
      Response r;
      if (request.type == RequestType::kHeartbeat) {
        r.set("alive", std::size_t{1});
        r.set("requests", m.requests);
        r.set("sweeps", sweeps_.size());
        return r;
      }
      const std::size_t lookups = counts_.cache_hits + counts_.cache_misses;
      r.set("requests", m.requests);
      r.set("errors", m.errors);
      r.set("latency-p50-ms", m.latency_p50_ms);
      r.set("cache-hits", std::size_t(counts_.cache_hits));
      r.set("cache-misses", std::size_t(counts_.cache_misses));
      r.set("cache-hit-rate",
            lookups == 0 ? 0.0 : double(counts_.cache_hits) / double(lookups));
      r.set("sessions", sessions_.size());
      r.set("sweeps", sweeps_.size());
      r.set("threads", std::size_t{1});
      return r;
    }
    case RequestType::kSelect:
      return select(request);
    case RequestType::kErEval:
    case RequestType::kIdentifiability: {
      const std::shared_ptr<Deployment> d = cache_get(key_from(request));
      const rnt::exp::Workload& w = d->workload;
      const std::vector<std::size_t> subset = subset_of(request);
      rnt::exp::EvalOptions opts;
      opts.scenarios =
          static_cast<std::size_t>(request.get_int("scenarios", 200));
      opts.identifiability = request.type == RequestType::kIdentifiability;
      rnt::exp::SelectionEvaluation eval;
      {
        Span s(tracer_, "exp.metrics.evaluate");
        rnt::Rng rng = w.eval_rng();
        eval = rnt::exp::evaluate_selection(*w.system, subset, *w.failures,
                                            opts, rng);
      }
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      if (opts.identifiability) {
        r.set("links", w.system->link_count());
        r.set("identifiable", eval.no_failure_identifiability);
        r.set("identifiable-mean", eval.identifiability.stats.mean());
        r.set("identifiable-std", eval.identifiability.stats.stddev());
        return r;
      }
      double prob_er = 0.0;
      {
        Span s(tracer_, "core.probbound.evaluate");
        prob_er = d->prob_bound->evaluate(subset);
      }
      r.set("no-failure-rank", eval.no_failure_rank);
      r.set("rank-mean", eval.rank.stats.mean());
      r.set("rank-std", eval.rank.stats.stddev());
      r.set("rank-p10", eval.rank.distribution.quantile(0.1));
      r.set("prob-er", prob_er);
      return r;
    }
    case RequestType::kFeed: {
      const std::shared_ptr<Session> session = session_for(key_from(request));
      const rnt::tomo::PathSystem& system =
          *session->deployment->workload.system;
      const std::vector<std::size_t> subset = subset_of(request);
      std::vector<bool> delivered;
      for (const std::size_t flag : parse_csv(request.get("delivered", ""))) {
        delivered.push_back(flag == 1);
      }
      bool drifted = false;
      {
        Span s(tracer_, "online.observe");
        session->estimator.observe_epoch(system, subset, delivered);
        drifted = session->drift.observe(session->estimator.probabilities());
      }
      if (drifted) ++session->drift_triggers;
      ++session->feeds;
      Response r;
      r.set("fed", std::size_t{1});
      r.set("epochs", session->estimator.epochs());
      r.set("drift", std::size_t{drifted ? 1u : 0u});
      r.set("divergence", session->drift.divergence());
      return r;
    }
    case RequestType::kReplan: {
      const std::shared_ptr<Session> session = session_for(key_from(request));
      const rnt::exp::Workload& w = session->deployment->workload;
      const double budget =
          request.get_double("budget-frac", 0.3) * total_cost(w);
      rnt::online::ReplanStats stats;
      core::Selection sel;
      {
        Span s(tracer_, "online.replan");
        const rnt::failures::FailureModel model = session->estimator.model();
        std::unique_ptr<core::ProbBoundEr> engine;
        {
          Span b(tracer_, "core.probbound.build");
          engine = std::make_unique<core::ProbBoundEr>(*w.system, model);
        }
        const TimedEngine timed(*engine, tracer_, kProbBound);
        sel = session->replanner.replan(timed, budget, &stats);
        session->drift.rearm(session->estimator.probabilities());
      }
      ++session->replans;
          counts_.replan_reused += stats.reused;
      counts_.replan_gain_evals += stats.rome.gain_evaluations;
      std::size_t rank = 0;
      {
        Span s(tracer_, "tomo.rank_of");
        rank = w.system->rank_of(sel.paths);
      }
      Response r;
      r.set("workload", w.topology_name);
      r.set("budget", budget);
      r.set("selected", sel.size());
      r.set("cost", sel.cost);
      r.set("objective", sel.objective);
      r.set("rank", rank);
      r.set("paths", join(sel.paths));
      r.set("warm", std::size_t{stats.warm ? 1u : 0u});
      r.set("reused", stats.reused);
      r.set("gain-evals", stats.rome.gain_evaluations);
      return r;
    }
    case RequestType::kPipelineStats: {
      const std::shared_ptr<Session> session = session_for(key_from(request));
      const std::vector<double> estimate =
          session->estimator.probabilities();
      double mean_estimate = 0.0;
      for (const double p : estimate) mean_estimate += p;
      if (!estimate.empty()) mean_estimate /= double(estimate.size());
      Response r;
      r.set("workload", session->deployment->workload.topology_name);
      r.set("feeds", session->feeds);
      r.set("epochs", session->estimator.epochs());
      r.set("replans", session->replans);
      r.set("drift-triggers", session->drift_triggers);
      r.set("divergence", session->drift.divergence());
      r.set("mean-estimate", mean_estimate);
      r.set("selected", session->replanner.current().size());
      return r;
    }
    case RequestType::kShardEval: {
      const std::shared_ptr<Deployment> d = cache_get(key_from(request));
      const auto runs = static_cast<std::size_t>(request.get_int("runs", 50));
      const core::KernelErEngine& engine = kernel_engine(
          *d, runs, core::parse_kernel_mode(request.get("kernel", "auto")));
      const std::vector<std::size_t> subset = subset_of(request);
      const auto begin = static_cast<std::size_t>(request.get_int("begin", 0));
      const auto end = static_cast<std::size_t>(
          request.get_int("end", std::int64_t(engine.scenario_count())));
      std::vector<std::size_t> ranks;
      {
        Span s(tracer_, "core.kernel.slice_ranks");
        ranks = engine.slice_ranks(subset, begin, end);
      }
      Response r;
      r.set("begin", begin);
      r.set("end", end);
      r.set("ranks", join(ranks));
      return r;
    }
    case RequestType::kShardSweep:
      return shard_sweep(request);
    case RequestType::kLocalize: {
      const std::shared_ptr<Deployment> d = cache_get(key_from(request));
      const rnt::exp::Workload& w = d->workload;
      const std::vector<std::size_t> subset = subset_of(request);
      const auto trials =
          static_cast<std::size_t>(request.get_int("scenarios", 300));
      rnt::tomo::LocalizationScore score;
      {
        Span s(tracer_, "tomo.localize");
        rnt::Rng rng = w.eval_rng();
        score = rnt::tomo::score_localization(*w.system, subset, *w.failures,
                                              trials, rng);
      }
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
      const std::shared_ptr<Deployment> d = cache_get(key_from(request));
      const rnt::exp::Workload& w = d->workload;
      const std::vector<std::size_t> subset = subset_of(request);
      const std::string family = request.get("family", "node");
      const auto k = static_cast<std::size_t>(request.get_int("k", 2));
      const auto trials =
          static_cast<std::size_t>(request.get_int("scenarios", 300));
      if (family != "node" || request.get_int("ident-cap", 0) != 0) {
        throw std::invalid_argument("replay: unsupported localize-node form");
      }
      rnt::boolnt::MultiLocalizationScore score;
      std::size_t components = 0;
      {
        Span s(tracer_, "boolnt.localize");
        const auto space = rnt::boolnt::HypothesisSpace::nodes_of(w.graph);
        components = space.component_count();
        rnt::Rng rng = w.eval_rng();
        score = rnt::boolnt::score_multi_localization(*w.system, subset,
                                                      space, k, trials, rng);
      }
      ++counts_.localize_node_calls;
      counts_.candidates_sum += score.mean_candidates;
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("components", components);
      r.set("k", k);
      r.set("trials", score.trials);
      r.set("exact", score.exact);
      r.set("ambiguous", score.ambiguous);
      r.set("misled", score.misled);
      r.set("invisible", score.invisible);
      r.set("mean-candidates", score.mean_candidates);
      r.set("exact-fraction", score.exact_fraction());
      r.set("hit-fraction", score.hit_fraction());
      return r;
    }
    case RequestType::kInfer: {
      const std::shared_ptr<Deployment> d = cache_get(key_from(request));
      const rnt::exp::Workload& w = d->workload;
      const std::vector<std::size_t> subset = subset_of(request);
      rnt::infer::InferenceConfig config;
      config.model =
          rnt::infer::parse_measurement_model(request.get("model", "delay"));
      config.noise_std = request.get_double("noise", 0.05);
      config.scenarios =
          static_cast<std::size_t>(request.get_int("scenarios", 200));
      config.threads = 1;
      rnt::infer::InferenceReport report;
      {
        Span s(tracer_, "infer.run");
        const rnt::infer::GroundTruth truth = rnt::infer::campaign_truth(
            config.model, w.system->link_count(), w.seed, config.truth);
        report = rnt::infer::run_inference(*w.system, subset, *w.failures,
                                           truth, config, w.seed);
      }
      counts_.cgls_iterations +=
          static_cast<std::uint64_t>(std::llround(report.iterations.sum()));
      Response r;
      r.set("workload", w.topology_name);
      r.set("model", rnt::infer::to_string(config.model));
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
    default:
      throw std::invalid_argument(std::string("replay: unsupported verb ") +
                                  service::to_verb(request.type));
  }
}

Response Replayer::shard_sweep(const Request& request) {
  const std::string op = request.get("op", "");
  const std::string key = request.get("sweep", "") + "/" +
                          std::to_string(request.get_int("begin", -1)) + "-" +
                          std::to_string(request.get_int("end", -1));
  const auto begin = static_cast<std::size_t>(request.get_int("begin", 0));
  const auto end = static_cast<std::size_t>(request.get_int("end", 0));
  Response r;
  if (op == "init") {
    const std::shared_ptr<Deployment> d = cache_get(key_from(request));
    const auto runs = static_cast<std::size_t>(request.get_int("runs", 50));
    const core::KernelErEngine& engine = kernel_engine(
        *d, runs, core::parse_kernel_mode(request.get("kernel", "auto")));
    auto sweep = std::make_shared<Sweep>();
    sweep->deployment = d;
    {
      Span s(tracer_, "core.kernel.shard_init");
      sweep->shard = engine.make_shard_accumulator(begin, end);
    }
    sweeps_[key] = std::move(sweep);
    r.set("ready", std::size_t{1});
    r.set("committed", std::size_t{0});
    return r;
  }
  if (op == "end") {
    r.set("ended", sweeps_.erase(key));
    return r;
  }
  const auto it = sweeps_.find(key);
  if (it == sweeps_.end()) {
    throw std::invalid_argument("shard-sweep: unknown session " + key);
  }
  Sweep& sweep = *it->second;
  const auto path = static_cast<std::size_t>(request.get_int("path", -1));
  if (op == "probe") {
    Span s(tracer_, "core.kernel.shard_probe");
    r.set("bits", service::encode_bits(sweep.shard->probe(path)));
    return r;
  }
  if (op != "add") throw std::invalid_argument("replay: bad shard-sweep op");
  const auto memo = sweep.add_bits.find(path);
  if (memo != sweep.add_bits.end()) {
    r.set("bits", memo->second);
    return r;
  }
  std::string bits;
  {
    Span s(tracer_, "core.kernel.shard_add");
    bits = service::encode_bits(sweep.shard->add(path));
  }
  sweep.add_bits.emplace(path, bits);
  r.set("bits", bits);
  return r;
}

}  // namespace perfbench
