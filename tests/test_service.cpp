// The concurrent tomography service: protocol codec, workload cache,
// request router, and the TCP front end.
//
// The acceptance test (ConcurrentMixedRequestsMatchModules) launches the
// service in-process, fires concurrent requests from several client
// threads spanning all four compute verbs, and checks every reply against
// the answer computed single-threaded straight from the core/tomo/exp
// modules with the CLI's seeding — the service must be observably
// identical to the one-shot path, only resident and concurrent.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "core/rome.h"
#include "exp/metrics.h"
#include "exp/workload.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/reactor_server.h"
#include "service/service.h"
#include "online/link_estimator.h"
#include "online/replanner.h"
#include "service/workload_cache.h"
#include "tomo/localization.h"

namespace rnt::service {
namespace {

// --------------------------------------------------------------------------
// Protocol: line codec round trips
// --------------------------------------------------------------------------

TEST(Protocol, VerbsRoundTrip) {
  for (RequestType type :
       {RequestType::kSelect, RequestType::kErEval,
        RequestType::kIdentifiability, RequestType::kLocalize,
        RequestType::kFeed, RequestType::kReplan,
        RequestType::kPipelineStats, RequestType::kHeartbeat,
        RequestType::kShardEval, RequestType::kShardSweep, RequestType::kStats,
        RequestType::kPing, RequestType::kShutdown}) {
    EXPECT_EQ(parse_verb(to_verb(type)), type);
  }
  EXPECT_THROW(parse_verb("frobnicate"), std::invalid_argument);
  EXPECT_THROW(parse_verb("worker-hello"), std::invalid_argument);
}

TEST(Protocol, RequestRoundTrip) {
  Request request;
  request.type = RequestType::kSelect;
  request.params = {{"as", "AS1755"}, {"budget-frac", "0.25"}, {"seed", "9"}};
  const Request back = parse_request(format_request(request));
  EXPECT_EQ(back.type, RequestType::kSelect);
  EXPECT_EQ(back.params, request.params);
}

TEST(Protocol, ResponseRoundTripIsExactForDoubles) {
  Response response;
  response.set("objective", 1.0 / 3.0);
  response.set("count", std::size_t{42});
  response.set("name", "AS3257");
  const Response back = parse_response(format_response(response));
  ASSERT_TRUE(back.ok);
  EXPECT_EQ(back.number("objective"), 1.0 / 3.0);  // Bitwise round trip.
  EXPECT_EQ(back.at("count"), "42");
  EXPECT_EQ(back.at("name"), "AS3257");
}

TEST(Protocol, ErrorReplyKeepsMessage) {
  const Response back =
      parse_response(format_response(Response::failure("bad thing: x=1")));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "bad thing: x=1");
}

TEST(Protocol, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_request(""), std::invalid_argument);
  EXPECT_THROW(parse_request("select budget"), std::invalid_argument);
  EXPECT_THROW(parse_request("warp speed=9"), std::invalid_argument);
  EXPECT_THROW(parse_response("maybe x=1"), std::invalid_argument);
}

TEST(Protocol, RequestFinishRejectsUnknownParams) {
  Request request = parse_request("ping colour=blue");
  EXPECT_THROW(request.finish(), std::invalid_argument);
  Request clean = parse_request("select seed=5");
  EXPECT_EQ(clean.get_int("seed", 1), 5);
  EXPECT_NO_THROW(clean.finish());
}

TEST(BitCodec, RoundTripsAndRejectsGarbage) {
  const std::vector<std::uint64_t> words{0x0123456789abcdefULL, 0, ~0ULL};
  EXPECT_EQ(decode_bits(encode_bits(words)), words);
  EXPECT_TRUE(encode_bits({}).empty());
  EXPECT_THROW(decode_bits("abc"), std::invalid_argument);
  EXPECT_THROW(decode_bits("000000000000000Z"), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Workload cache
// --------------------------------------------------------------------------

WorkloadKey small_key(std::uint64_t seed) {
  WorkloadKey key;
  key.nodes = 30;
  key.links = 60;
  key.candidate_paths = 30;
  key.seed = seed;
  key.intensity = 5.0;
  return key;
}

TEST(WorkloadCache, SecondGetIsAHit) {
  WorkloadCache cache(4);
  const auto a = cache.get(small_key(3));
  const auto b = cache.get(small_key(3));
  EXPECT_EQ(a.get(), b.get());  // Same immutable entry is shared.
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_GT(c.hit_rate(), 0.0);
}

TEST(WorkloadCache, LruBoundEvictsOldest) {
  WorkloadCache cache(2);
  (void)cache.get(small_key(1));
  (void)cache.get(small_key(2));
  (void)cache.get(small_key(3));  // Evicts seed=1.
  auto c = cache.counters();
  EXPECT_EQ(c.size, 2u);
  EXPECT_EQ(c.evictions, 1u);
  (void)cache.get(small_key(1));  // Rebuild: a miss, not a hit.
  c = cache.counters();
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.hits, 0u);
}

TEST(WorkloadCache, ConcurrentSameKeyBuildsOnce) {
  WorkloadCache cache(4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CachedWorkload>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &got, i] { got[i] = cache.get(small_key(7)); });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[0].get(), got[i].get());
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 1u);  // Exactly one build.
  EXPECT_EQ(c.hits, static_cast<std::size_t>(kThreads) - 1);
}

// Threads rotate through three keys over a capacity-1 cache, so builds,
// hits and evictions of the same entries interleave.  Entries pinned by a
// shared_ptr must outlive their eviction, and the counters must balance:
// every built entry is either resident or evicted.
TEST(WorkloadCache, ConcurrentEvictionUnderSameKeyContention) {
  WorkloadCache cache(1);
  constexpr int kThreads = 6;
  constexpr int kIters = 8;
  std::atomic<int> bad_entries{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &bad_entries, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto entry = cache.get(small_key(1 + (i + t) % 3));
        if (entry == nullptr || entry->workload.system == nullptr ||
            entry->workload.system->path_count() == 0) {
          ++bad_entries;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_entries, 0);

  // Pin one entry, then force a fully-settled eviction pass with a fresh
  // key: every ready entry beyond capacity must now be evicted.
  const auto pinned = cache.get(small_key(1));
  (void)cache.get(small_key(4));
  const auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<std::size_t>(kThreads) * kIters + 2);
  EXPECT_EQ(c.size, 1u);  // Only the fresh key survives.
  EXPECT_EQ(c.evictions, c.misses - c.size);
  EXPECT_GE(c.evictions, 3u);
  // Eviction dropped the cache's reference, not the entry itself.
  EXPECT_GT(pinned->workload.system->path_count(), 0u);
}

// Differential: the memoized ProbBound of a cached workload must stay
// bitwise identical to a fresh, never-cached build of the same key, across
// repeated evictions and re-admissions.  Any drift here would make service
// er-eval answers depend on cache history.
TEST(WorkloadCache, ErEvalBitwiseStableAcrossEvictionCycles) {
  const WorkloadKey key = small_key(5);
  WorkloadKey other = key;
  other.seed = key.seed + 1;

  // Reference: a build that never touches the cache.
  const exp::Workload fresh = exp::make_custom_workload(
      key.nodes, key.links, key.candidate_paths, key.seed, key.intensity,
      key.unit_costs);
  const core::ProbBoundEr fresh_engine(*fresh.system, *fresh.failures);
  const std::size_t paths = fresh.system->path_count();
  std::vector<std::vector<std::size_t>> subsets;
  subsets.emplace_back(paths);
  std::iota(subsets.back().begin(), subsets.back().end(), std::size_t{0});
  subsets.push_back({0});
  subsets.push_back({paths - 1, paths / 2, 0});
  std::vector<double> reference;
  reference.reserve(subsets.size());
  for (const auto& s : subsets) reference.push_back(fresh_engine.evaluate(s));

  WorkloadCache cache(1);
  for (int cycle = 0; cycle < 3; ++cycle) {
    const auto entry = cache.get(key);
    ASSERT_EQ(entry->workload.system->path_count(), paths);
    for (std::size_t i = 0; i < subsets.size(); ++i) {
      EXPECT_EQ(entry->prob_bound.evaluate(subsets[i]), reference[i])
          << "cycle " << cycle << ", subset " << i;
    }
    (void)cache.get(other);  // Capacity 1: evicts `key` for the next cycle.
  }
  const auto c = cache.counters();
  EXPECT_GE(c.evictions, 5u);  // Every cycle evicted both entries in turn.
  EXPECT_EQ(c.hits, 0u);       // Each get after an eviction was a rebuild.
}

TEST(WorkloadCache, BuildFailureIsRetriable) {
  WorkloadCache cache(4);
  WorkloadKey bad = small_key(3);
  bad.links = 2;  // Too few links for 30 nodes: the builder throws.
  EXPECT_THROW((void)cache.get(bad), std::exception);
  EXPECT_THROW((void)cache.get(bad), std::exception);  // Not a poisoned hit.
  EXPECT_NO_THROW((void)cache.get(small_key(3)));
}

// --------------------------------------------------------------------------
// Service router
// --------------------------------------------------------------------------

TEST(Service, PingAndStats) {
  Service svc(ServiceConfig{.threads = 2, .cache_capacity = 2});
  const Response pong = svc.handle_line("ping");
  ASSERT_TRUE(pong.ok) << pong.error;
  EXPECT_EQ(pong.at("pong"), "1");
  const Response stats = svc.handle_line("stats");
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.number("requests"), 1.0);  // The ping, not this stats call.
  EXPECT_EQ(stats.number("errors"), 0.0);
  EXPECT_EQ(stats.number("threads"), 2.0);
  EXPECT_EQ(stats.number("sessions"), 0.0);
  // Latency quantiles are reported in order.
  EXPECT_GE(stats.number("latency-p50-ms"), 0.0);
  EXPECT_LE(stats.number("latency-p50-ms"), stats.number("latency-p95-ms"));
  EXPECT_LE(stats.number("latency-p95-ms"), stats.number("latency-p99-ms"));
}

TEST(Service, ErrorsBecomeRepliesAndAreCounted) {
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const Response bad_verb = svc.handle_line("frobnicate x=1");
  EXPECT_FALSE(bad_verb.ok);
  const Response bad_algo = svc.handle_line(
      "select nodes=30 links=60 paths=30 seed=3 intensity=5 algorithm=magic");
  EXPECT_FALSE(bad_algo.ok);
  EXPECT_NE(bad_algo.error.find("magic"), std::string::npos);
  const Response typo = svc.handle_line(
      "select nodes=30 links=60 paths=30 seed=3 intensity=5 budgett-frac=0.2");
  EXPECT_FALSE(typo.ok);
  EXPECT_NE(typo.error.find("budgett-frac"), std::string::npos);
  const auto m = svc.metrics();
  EXPECT_EQ(m.errors, 2u);  // Unparseable verbs never reach the router.
}

TEST(Service, ExplicitSubsetSkipsSelection) {
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const Response r = svc.handle_line(
      "er-eval nodes=30 links=60 paths=30 seed=3 intensity=5 subset=0,1,2 "
      "scenarios=50");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.number("paths"), 3.0);
  const Response bad = svc.handle_line(
      "er-eval nodes=30 links=60 paths=30 seed=3 intensity=5 subset=0,999");
  EXPECT_FALSE(bad.ok);
}

// The ISSUE acceptance test: concurrent mixed verbs from several client
// threads, every reply equal to the single-threaded module answer, cache
// hit rate > 0, clean shutdown.
TEST(Service, ConcurrentMixedRequestsMatchModules) {
  constexpr std::size_t kNodes = 40, kLinks = 80, kPaths = 60;
  constexpr std::uint64_t kSeed = 9;
  constexpr double kIntensity = 5.0, kBudgetFrac = 0.25;
  constexpr std::size_t kScenarios = 100;

  // Ground truth, single-threaded, straight from the modules with the
  // CLI's seeding discipline.
  exp::Workload w =
      exp::make_custom_workload(kNodes, kLinks, kPaths, kSeed, kIntensity);
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double budget = kBudgetFrac * w.costs.subset_cost(*w.system, all);
  core::ProbBoundEr prob(*w.system, *w.failures);
  const core::Selection sel = core::rome(*w.system, w.costs, budget, prob);
  ASSERT_FALSE(sel.paths.empty());

  exp::EvalOptions er_opts;
  er_opts.scenarios = kScenarios;
  er_opts.identifiability = false;
  Rng er_rng = w.eval_rng();
  const auto er =
      exp::evaluate_selection(*w.system, sel.paths, *w.failures, er_opts,
                              er_rng);
  exp::EvalOptions id_opts;
  id_opts.scenarios = kScenarios;
  id_opts.identifiability = true;
  Rng id_rng = w.eval_rng();
  const auto ident =
      exp::evaluate_selection(*w.system, sel.paths, *w.failures, id_opts,
                              id_rng);
  Rng loc_rng = w.eval_rng();
  const auto loc = tomo::score_localization(*w.system, sel.paths, *w.failures,
                                            kScenarios, loc_rng);

  const std::string wparams =
      "nodes=40 links=80 paths=60 seed=9 intensity=5";
  const std::vector<std::string> lines = {
      "select " + wparams + " algorithm=prob-rome budget-frac=0.25",
      "er-eval " + wparams + " budget-frac=0.25 scenarios=100",
      "identifiability " + wparams + " budget-frac=0.25 scenarios=100",
      "localize " + wparams + " budget-frac=0.25 scenarios=100",
  };

  Service svc(ServiceConfig{.threads = 4, .cache_capacity = 4});

  // 3 client threads x 4 verbs = 12 concurrent requests (>= 8, all four
  // compute verbs in flight at once).
  constexpr int kClients = 3;
  std::vector<std::vector<Response>> replies(
      kClients, std::vector<Response>(lines.size()));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&svc, &lines, &replies, c] {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        replies[c][i] = svc.handle_line(lines[i]);
      }
    });
  }
  for (auto& t : clients) t.join();

  std::string expected_paths;
  for (std::size_t i = 0; i < sel.paths.size(); ++i) {
    if (i > 0) expected_paths += ',';
    expected_paths += std::to_string(sel.paths[i]);
  }

  for (int c = 0; c < kClients; ++c) {
    const Response& select = replies[c][0];
    ASSERT_TRUE(select.ok) << select.error;
    EXPECT_EQ(select.number("selected"),
              static_cast<double>(sel.paths.size()));
    EXPECT_EQ(select.number("budget"), budget);
    EXPECT_EQ(select.number("cost"), sel.cost);
    EXPECT_EQ(select.number("objective"), sel.objective);
    EXPECT_EQ(select.at("paths"), expected_paths);

    const Response& ereval = replies[c][1];
    ASSERT_TRUE(ereval.ok) << ereval.error;
    EXPECT_EQ(ereval.number("no-failure-rank"),
              static_cast<double>(er.no_failure_rank));
    EXPECT_EQ(ereval.number("rank-mean"), er.rank.stats.mean());
    EXPECT_EQ(ereval.number("rank-std"), er.rank.stats.stddev());
    EXPECT_EQ(ereval.number("prob-er"), prob.evaluate(sel.paths));

    const Response& identifiability = replies[c][2];
    ASSERT_TRUE(identifiability.ok) << identifiability.error;
    EXPECT_EQ(identifiability.number("identifiable"),
              static_cast<double>(ident.no_failure_identifiability));
    EXPECT_EQ(identifiability.number("identifiable-mean"),
              ident.identifiability.stats.mean());

    const Response& localize = replies[c][3];
    ASSERT_TRUE(localize.ok) << localize.error;
    EXPECT_EQ(localize.number("trials"), static_cast<double>(loc.trials));
    EXPECT_EQ(localize.number("exact"), static_cast<double>(loc.exact));
    EXPECT_EQ(localize.number("mean-candidates"), loc.mean_candidates);
  }

  // One workload key: one build, everything else served from cache.
  const auto cache = svc.cache_counters();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, static_cast<std::size_t>(kClients) * lines.size() - 1);
  EXPECT_GT(cache.hit_rate(), 0.0);

  const auto m = svc.metrics();
  EXPECT_EQ(m.requests, static_cast<std::size_t>(kClients) * lines.size());
  EXPECT_EQ(m.errors, 0u);

  svc.shutdown();  // Clean drain; double shutdown stays safe.
  svc.shutdown();
}

TEST(Service, SubmitRunsOnPoolAndMatchesHandle) {
  Service svc(ServiceConfig{.threads = 2, .cache_capacity = 2});
  const std::string line =
      "select nodes=30 links=60 paths=30 seed=3 intensity=5 budget-frac=0.3";
  auto f1 = svc.submit_line(line);
  auto f2 = svc.submit_line(line);
  const Response a = f1.get();
  const Response b = f2.get();
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(format_response(a), format_response(b));
  svc.shutdown();
  EXPECT_THROW((void)svc.submit_line(line), std::runtime_error);
}

// --------------------------------------------------------------------------
// Adaptive pipeline verbs
// --------------------------------------------------------------------------

// feed / replan / pipeline-stats replies equal the answers computed
// straight from the online modules fed with the same observations.
TEST(Service, AdaptiveVerbsMatchOnlineModules) {
  const std::string wparams = "nodes=30 links=60 paths=30 seed=3 intensity=5";
  Service svc(ServiceConfig{.threads = 2, .cache_capacity = 2});

  // Module-side twin of the service's per-workload session.
  exp::Workload w = exp::make_custom_workload(30, 60, 30, 3, 5.0);
  online::LinkEstimator est(w.system->link_count());

  est.observe_link(0, true, 30.0);
  Response fed =
      svc.handle_line("feed " + wparams + " link=0 failed=1 count=30");
  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_EQ(fed.at("fed"), "1");
  EXPECT_EQ(fed.number("epochs"), 0.0);  // Telemetry is not an epoch.

  est.observe_link(1, false, 30.0);
  fed = svc.handle_line("feed " + wparams + " link=1 failed=0 count=30");
  ASSERT_TRUE(fed.ok) << fed.error;

  est.observe_epoch(*w.system, {0, 1, 2}, {false, true, true});
  fed = svc.handle_line("feed " + wparams + " subset=0,1,2 delivered=0,1,1");
  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_EQ(fed.number("epochs"), 1.0);

  // Re-plans run warm-start RoMe against the estimated model: the first is
  // cold, the second warm, both equal to the module answer.
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const double budget = 0.3 * w.costs.subset_cost(*w.system, all);
  const failures::FailureModel model = est.model();  // Outlives the engine.
  const core::ProbBoundEr engine(*w.system, model);
  online::Replanner rp(*w.system, w.costs);
  online::ReplanStats cold_stats;
  const core::Selection cold = rp.replan(engine, budget, &cold_stats);
  online::ReplanStats warm_stats;
  const core::Selection warm = rp.replan(engine, budget, &warm_stats);

  const Response first = svc.handle_line("replan " + wparams);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.number("budget"), budget);
  EXPECT_EQ(first.number("selected"), static_cast<double>(cold.paths.size()));
  EXPECT_EQ(first.number("cost"), cold.cost);
  EXPECT_EQ(first.number("objective"), cold.objective);
  EXPECT_EQ(first.number("warm"), 0.0);
  EXPECT_EQ(first.number("gain-evals"),
            static_cast<double>(cold_stats.rome.gain_evaluations));

  const Response second = svc.handle_line("replan " + wparams);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.number("objective"), warm.objective);
  EXPECT_EQ(second.number("warm"), 1.0);
  EXPECT_EQ(second.number("reused"), static_cast<double>(warm_stats.reused));
  EXPECT_EQ(second.number("gain-evals"),
            static_cast<double>(warm_stats.rome.gain_evaluations));

  const Response ps = svc.handle_line("pipeline-stats " + wparams);
  ASSERT_TRUE(ps.ok) << ps.error;
  EXPECT_EQ(ps.number("feeds"), 3.0);
  EXPECT_EQ(ps.number("epochs"), 1.0);
  EXPECT_EQ(ps.number("replans"), 2.0);
  EXPECT_EQ(ps.number("selected"), static_cast<double>(warm.paths.size()));
  double mean_estimate = 0.0;
  for (const double p : est.probabilities()) mean_estimate += p;
  mean_estimate /= static_cast<double>(w.system->link_count());
  EXPECT_EQ(ps.number("mean-estimate"), mean_estimate);

  EXPECT_EQ(svc.session_count(), 1u);
  const Response stats = svc.handle_line("stats");
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.number("sessions"), 1.0);
}

TEST(Service, FeedRejectsBadTelemetry) {
  const std::string wparams = "nodes=30 links=60 paths=30 seed=3 intensity=5";
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  EXPECT_FALSE(svc.handle_line("feed " + wparams + " link=999 failed=1").ok);
  EXPECT_FALSE(svc.handle_line("feed " + wparams + " link=-1 failed=1").ok);
  EXPECT_FALSE(
      svc.handle_line("feed " + wparams + " link=0 failed=1 count=0").ok);
  // Epoch form: the delivered flags must match the probed subset.
  EXPECT_FALSE(
      svc.handle_line("feed " + wparams + " subset=0,1 delivered=1").ok);
  EXPECT_FALSE(
      svc.handle_line("feed " + wparams + " subset=0,999 delivered=1,0").ok);
  // Mixing the two forms leaves unknown parameters behind.
  EXPECT_FALSE(svc.handle_line("feed " + wparams +
                               " subset=0,1 delivered=1,0 link=0 failed=1")
                   .ok);
  // Failed feeds never advance the session estimator.
  const Response ps = svc.handle_line("pipeline-stats " + wparams);
  ASSERT_TRUE(ps.ok) << ps.error;
  EXPECT_EQ(ps.number("feeds"), 0.0);
  EXPECT_EQ(ps.number("epochs"), 0.0);
}

TEST(Service, NegativeCountsAreRejectedNotWrapped) {
  // A negative size must not wrap to a 2^64-element request.
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string wparams = "nodes=30 links=60 seed=3 intensity=5";
  for (const auto& [line, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"select " + wparams + " paths=-1 budget-frac=0.3", "paths"},
           {"er-eval " + wparams + " paths=30 subset=0,1 scenarios=-5",
            "scenarios"},
           {"localize-node " + wparams + " paths=30 family=node k=-1", "k"}}) {
    const Response r = svc.handle_line(line);
    ASSERT_FALSE(r.ok) << line;
    EXPECT_NE(r.error.find("parameter " + key + ": must be non-negative"),
              std::string::npos)
        << r.error;
  }
  const Response pong = svc.handle_line("ping");
  ASSERT_TRUE(pong.ok) << pong.error;
  EXPECT_EQ(pong.at("pong"), "1");
}

TEST(Service, ZeroScenariosAreRejectedByEveryScenarioVerb) {
  // scenarios=0 used to leak "EmpiricalDistribution::quantile: no samples"
  // from er-eval and answer ok with all-zero means from the other four.
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string params =
      "nodes=30 links=60 seed=3 intensity=5 paths=30 subset=0,1,2 "
      "scenarios=0";
  for (const std::string verb : {"er-eval", "identifiability", "infer",
                                 "localize", "localize-node"}) {
    const Response r = svc.handle_line(verb + " " + params);
    ASSERT_FALSE(r.ok) << verb;
    EXPECT_NE(r.error.find(verb + ": scenarios must be positive"),
              std::string::npos)
        << r.error;
  }
}

TEST(Service, ScenariosAboveTheVerbCapAreRejected) {
  // One past each verb's cap gets a structured error; nothing at the cap
  // size is ever run here.
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string params =
      "nodes=30 links=60 seed=3 intensity=5 paths=30 subset=0,1,2";
  const std::vector<std::pair<std::string, std::size_t>> caps = {
      {"er-eval", kMaxErEvalScenarios},
      {"identifiability", kMaxIdentifiabilityScenarios},
      {"infer", kMaxInferScenarios},
      {"localize-node", kMaxLocalizeNodeScenarios}};
  for (const auto& [verb, cap] : caps) {
    const Response r = svc.handle_line(verb + " " + params + " scenarios=" +
                                       std::to_string(cap + 1));
    ASSERT_FALSE(r.ok) << verb;
    EXPECT_EQ(r.error,
              verb + ": scenarios must be at most " + std::to_string(cap));
  }
}

TEST(Service, InferRejectsNonFiniteNoise) {
  // noise=inf answered converged=0 residual-mean=-nan; noise=nan silently
  // ran noise-free.
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string params =
      "nodes=30 links=60 seed=3 intensity=5 paths=30 subset=0,1,2 "
      "scenarios=5";
  for (const char* noise : {"inf", "-inf", "nan", "-0.5"}) {
    const Response r =
        svc.handle_line("infer " + params + " noise=" + noise);
    ASSERT_FALSE(r.ok) << noise;
    EXPECT_NE(r.error.find("infer: noise must be finite and non-negative"),
              std::string::npos)
        << r.error;
  }
  EXPECT_TRUE(svc.handle_line("infer " + params + " noise=0").ok);
}

TEST(Service, ShardRunsAboveTheCapAreRejected) {
  // runs= sizes the kernel engine the shard verbs build; the cap is
  // checked before any workload or engine exists, so nothing large is
  // ever allocated here.
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string params = "nodes=30 links=60 seed=3 intensity=5 paths=30";
  const std::string runs = std::to_string(kMaxErEvalScenarios + 1);
  for (const auto& [verb, line] :
       std::vector<std::pair<std::string, std::string>>{
           {"shard-eval", "shard-eval " + params + " subset=0,1 runs=" + runs},
           {"shard-sweep", "shard-sweep " + params +
                               " sweep=s1 op=init begin=0 end=1 runs=" +
                               runs}}) {
    const Response r = svc.handle_line(line);
    ASSERT_FALSE(r.ok) << verb;
    EXPECT_EQ(r.error, verb + ": runs must be at most " +
                           std::to_string(kMaxErEvalScenarios));
  }
  const Response pong = svc.handle_line("ping");
  ASSERT_TRUE(pong.ok) << pong.error;
  EXPECT_EQ(pong.at("pong"), "1");
}

TEST(Service, NonFiniteOrNegativeBudgetsAreRejected) {
  // budget-frac=nan passed every budget test and selected paths costing
  // more than any budget; inf and negative fractions fared no better.
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string wparams = "nodes=30 links=60 seed=3 intensity=5 paths=30";
  for (const char* frac : {"nan", "inf", "-inf", "-0.1", "1e308"}) {
    for (const std::string& line :
         {"select " + wparams + " budget-frac=" + frac,
          "replan " + wparams + " budget-frac=" + frac,
          "er-eval " + wparams + " scenarios=5 budget-frac=" + frac,
          "er-eval " + wparams + " subset=0,1 scenarios=5 budget-frac=" +
              frac}) {
      const Response r = svc.handle_line(line);
      ASSERT_FALSE(r.ok) << line;
      EXPECT_NE(r.error.find(
                    "budget-frac must give a finite, non-negative budget"),
                std::string::npos)
          << r.error;
    }
  }
  EXPECT_TRUE(svc.handle_line("select " + wparams + " budget-frac=0").ok);
}

// --------------------------------------------------------------------------
// TCP front end
// --------------------------------------------------------------------------

TEST(ReactorServer, ServesProtocolOverLoopbackAndStopsOnShutdown) {
  ReactorServer server(
      ReactorServerConfig{.port = 0,  // Kernel-assigned ephemeral port.
                          .threads = 2,
                          .cache_capacity = 2,
                          .request_timeout_s = 120.0});
  ASSERT_GT(server.port(), 0);
  std::thread runner([&server] { server.run(); });

  {
    TcpClient client("127.0.0.1", server.port(), 120.0);
    const Response pong = parse_response(client.call_line("ping"));
    ASSERT_TRUE(pong.ok) << pong.error;
    EXPECT_EQ(pong.at("pong"), "1");

    Request select;
    select.type = RequestType::kSelect;
    select.params = {{"nodes", "30"}, {"links", "60"}, {"paths", "30"},
                     {"seed", "3"},   {"intensity", "5"},
                     {"budget-frac", "0.3"}};
    const Response first = client.call(select);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_GT(first.number("selected"), 0.0);
    const Response again = client.call(select);  // Cache hit, same answer.
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(format_response(first), format_response(again));

    // Errors come back as structured replies, not dropped connections.
    const Response bad = parse_response(client.call_line("warp factor=9"));
    EXPECT_FALSE(bad.ok);
    const Response typo = parse_response(client.call_line(
        "select nodes=30 links=60 paths=30 seed=3 intensity=5 "
        "budgett-frac=0.3"));
    EXPECT_FALSE(typo.ok);
    EXPECT_NE(typo.error.find("budgett-frac"), std::string::npos);

    const Response stats = parse_response(client.call_line("stats"));
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_GT(stats.number("cache-hit-rate"), 0.0);

    const Response down = parse_response(client.call_line("shutdown"));
    ASSERT_TRUE(down.ok) << down.error;
    EXPECT_EQ(down.at("shutting-down"), "1");
  }

  runner.join();  // `shutdown` request stops run(); joining proves it.
  EXPECT_TRUE(server.stopping());
}

// --------------------------------------------------------------------------
// Hostile input on the wire
// --------------------------------------------------------------------------
//
// The framing contract for a public TCP port: whatever bytes arrive, the
// server answers with a structured error reply or closes the connection —
// it never wedges the loop and never buffers an unterminated line without
// bound (the size caps are tested in test_net.cpp).

/// A raw loopback socket speaking bytes, not the protocol — the adversary's
/// view of the server.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      throw std::runtime_error("RawConn: connect failed");
    }
    // Bound every read so a wedged server fails the test instead of
    // hanging it.
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~RawConn() { close(); }

  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until '\n' (returned line excludes it) — "" on EOF/timeout.
  std::string read_line() {
    std::string line;
    char c;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return "";
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  /// True when the server closed its end (EOF within the read deadline).
  bool server_closed() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  /// Hard close with RST: what a crashed client looks like to the server.
  void abort() {
    linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    close();
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

TEST(ReactorServer, GarbageBytesGetStructuredErrorNotAHang) {
  ReactorServer server(ReactorServerConfig{.port = 0, .threads = 1});
  std::thread runner([&server] { server.run(); });

  {
    RawConn raw(server.port());
    raw.send_bytes("\x01\x02\xff garbage \x7f\n");
    const std::string reply = raw.read_line();
    ASSERT_FALSE(reply.empty()) << "server did not answer garbage";
    EXPECT_FALSE(parse_response(reply).ok);

    // Binary soup with an embedded newline per write: every line gets its
    // own structured error on the same, still-healthy connection.
    for (const std::string& bytes :
         {std::string("select budget\n"), std::string("=\n"),
          std::string("\xde\xad\xbe\xef\n", 5), std::string("warp x=1\n")}) {
      raw.send_bytes(bytes);
      const std::string r = raw.read_line();
      ASSERT_FALSE(r.empty());
      EXPECT_FALSE(parse_response(r).ok);
    }

    // The same connection still serves well-formed requests afterwards.
    raw.send_bytes("ping\n");
    EXPECT_TRUE(parse_response(raw.read_line()).ok);
  }

  server.stop();
  runner.join();
}

TEST(ReactorServer, TruncatedFrameThenCloseLeavesServerServing) {
  ReactorServer server(ReactorServerConfig{.port = 0, .threads = 1});
  std::thread runner([&server] { server.run(); });

  {
    RawConn raw(server.port());
    raw.send_bytes("select nodes=30 links=60 pa");  // Mid-token, no newline.
    // Nothing to answer yet, and nothing to wait for: just vanish.
  }
  {
    RawConn raw(server.port());
    raw.send_bytes("ping");  // Complete verb, missing terminator.
    raw.abort();             // RST instead of FIN.
  }

  TcpClient client("127.0.0.1", server.port(), 5.0);
  EXPECT_TRUE(parse_response(client.call_line("ping")).ok);

  server.stop();
  runner.join();
}

TEST(ReactorServer, UndeliverableReplyCountsAsTransportError) {
  ReactorServer server(ReactorServerConfig{.port = 0,
                                           .threads = 2,
                                           .cache_capacity = 2,
                                           .request_timeout_s = 120.0});
  std::thread runner([&server] { server.run(); });

  {
    // Ask for real work, then crash before the reply can land: the server
    // computes the answer for a peer that is gone, and the undelivered
    // reply is *counted* rather than silently swallowed.
    RawConn raw(server.port());
    raw.send_bytes(
        "select nodes=30 links=60 paths=30 seed=3 intensity=5 "
        "budget-frac=0.3\n");
    raw.abort();
  }

  TcpClient client("127.0.0.1", server.port(), 30.0);
  std::size_t transport_errors = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const Response stats = parse_response(client.call_line("stats"));
    ASSERT_TRUE(stats.ok) << stats.error;
    transport_errors =
        static_cast<std::size_t>(stats.number("transport-errors"));
    if (transport_errors >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(transport_errors, 1u);

  server.stop();
  runner.join();
}

// The adaptive verbs over loopback, concurrently with classic compute
// verbs.  Link telemetry is commutative, so however the client threads
// interleave, the session posterior — and the replies derived from it —
// must equal the single-threaded module answer.
TEST(ReactorServer, ConcurrentAdaptiveVerbsMatchModules) {
  ReactorServer server(ReactorServerConfig{.port = 0,
                                           .threads = 4,
                                           .cache_capacity = 2,
                                           .request_timeout_s = 120.0});
  std::thread runner([&server] { server.run(); });
  const std::string wparams = "nodes=30 links=60 paths=30 seed=3 intensity=5";
  constexpr int kClients = 4;
  constexpr int kFeedsPerClient = 25;
  std::atomic<int> failed_replies{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &wparams, &failed_replies] {
      TcpClient client("127.0.0.1", server.port(), 120.0);
      for (int i = 0; i < kFeedsPerClient; ++i) {
        const Response r = parse_response(
            client.call_line("feed " + wparams + " link=0 failed=1"));
        if (!r.ok) ++failed_replies;
      }
      // Mixed in: a classic compute verb and a stats probe on the same
      // connection must keep working while feeds hammer the session.
      const Response sel = parse_response(client.call_line(
          "select " + wparams + " budget-frac=0.3"));
      if (!sel.ok || sel.number("selected") <= 0.0) ++failed_replies;
      if (!parse_response(client.call_line("ping")).ok) ++failed_replies;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failed_replies, 0);

  // Module twin: the posterior after 100 unit-weight failure reports on
  // link 0 in any order equals one weight-100 report.
  online::LinkEstimator est(60);
  est.observe_link(0, true,
                   static_cast<double>(kClients * kFeedsPerClient));
  double mean_estimate = 0.0;
  for (const double p : est.probabilities()) mean_estimate += p;
  mean_estimate /= 60.0;

  TcpClient client("127.0.0.1", server.port(), 120.0);
  const Response ps =
      parse_response(client.call_line("pipeline-stats " + wparams));
  ASSERT_TRUE(ps.ok) << ps.error;
  EXPECT_EQ(ps.number("feeds"),
            static_cast<double>(kClients * kFeedsPerClient));
  EXPECT_EQ(ps.number("epochs"), 0.0);
  EXPECT_EQ(ps.number("mean-estimate"), mean_estimate);

  const Response replan =
      parse_response(client.call_line("replan " + wparams));
  ASSERT_TRUE(replan.ok) << replan.error;
  EXPECT_GT(replan.number("selected"), 0.0);
  EXPECT_EQ(replan.number("warm"), 0.0);  // First plan of the session.

  const Response stats = parse_response(client.call_line("stats"));
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.number("sessions"), 1.0);
  EXPECT_EQ(stats.number("errors"), 0.0);

  const Response down = parse_response(client.call_line("shutdown"));
  ASSERT_TRUE(down.ok) << down.error;
  runner.join();
}

// stop() while requests are in flight: the server must drain without
// crashing or hanging, and the client sees either a completed reply or a
// clean connection error — never a stuck call.
TEST(ReactorServer, StopRacesInFlightRequests) {
  ReactorServer server(ReactorServerConfig{.port = 0,
                                           .threads = 2,
                                           .cache_capacity = 2,
                                           .request_timeout_s = 120.0});
  std::thread runner([&server] { server.run(); });
  constexpr int kClients = 3;
  std::atomic<int> finished{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &finished, c] {
      try {
        TcpClient client("127.0.0.1", server.port(), 120.0);
        // Distinct seeds force fresh workload builds, keeping the
        // requests in flight when stop() lands.
        (void)client.call_line(
            "select nodes=40 links=80 paths=60 seed=" +
            std::to_string(100 + c) + " intensity=5 budget-frac=0.3");
      } catch (const std::exception&) {
        // A torn-down connection is an acceptable outcome of stop().
      }
      ++finished;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.stop();
  runner.join();
  for (auto& t : clients) t.join();
  EXPECT_EQ(finished, kClients);
  EXPECT_TRUE(server.stopping());
}

TEST(Service, KernelEngineParamAddsKernelEr) {
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string wparams =
      "nodes=30 links=60 paths=30 seed=3 intensity=5 subset=0,1,2,3,4 "
      "scenarios=50";
  const Response plain = svc.handle_line("er-eval " + wparams);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_EQ(plain.find("kernel-er"), nullptr);

  const Response kernel = svc.handle_line("er-eval " + wparams +
                                          " engine=kernel");
  ASSERT_TRUE(kernel.ok) << kernel.error;
  ASSERT_NE(kernel.find("kernel-er"), nullptr);
  // The cached kernel engine evaluates the monte-rome mixture: same
  // sampler, same seed (workload seed * 101), 50 runs — rebuild it here
  // and demand bitwise equality.
  WorkloadCache cache(2);
  WorkloadKey key;
  key.nodes = 30;
  key.links = 60;
  key.candidate_paths = 30;
  key.seed = 3;
  key.intensity = 5.0;
  const auto cw = cache.get(key);
  Rng rng(cw->workload.seed * 101);
  const core::MonteCarloEr twin(*cw->workload.system, *cw->workload.failures,
                                50, rng);
  EXPECT_EQ(kernel.number("kernel-er"), twin.evaluate({0, 1, 2, 3, 4}));
  // Repeated queries hit the engine's rank memo — and stay bitwise stable.
  const Response again = svc.handle_line("er-eval " + wparams +
                                         " engine=kernel");
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.number("kernel-er"), kernel.number("kernel-er"));
}

TEST(Service, KernelRomeMatchesMonteRome) {
  Service svc(ServiceConfig{.threads = 1, .cache_capacity = 2});
  const std::string wparams =
      "nodes=30 links=60 paths=40 seed=5 intensity=5 budget-frac=0.25";
  const Response monte =
      svc.handle_line("select " + wparams + " algorithm=monte-rome");
  const Response kernel =
      svc.handle_line("select " + wparams + " algorithm=kernel-rome");
  ASSERT_TRUE(monte.ok) << monte.error;
  ASSERT_TRUE(kernel.ok) << kernel.error;
  // Identical mixture => identical selection; the objective may drift in
  // the last bits because the kernel accumulator sums merged scenario-class
  // weights instead of per-scenario weights (documented 1e-9 bound, pinned
  // by the kernel-matches-scenario differential check).
  EXPECT_EQ(kernel.at("paths"), monte.at("paths"));
  EXPECT_NEAR(kernel.number("objective"), monte.number("objective"), 1e-9);
  EXPECT_EQ(kernel.number("rank"), monte.number("rank"));
}

// --------------------------------------------------------------------------
// Shard verbs on the wire
// --------------------------------------------------------------------------
//
// shard-eval and shard-sweep answer integers only (ranks, independence
// bits), so a client holding every slice of the scenarios reproduces the
// engine's ranks, gains and values exactly.  EXPECT_EQ on doubles here is
// deliberate.

constexpr std::size_t kRuns = 25;

WorkloadKey shard_key() {
  WorkloadKey key;
  key.nodes = 30;
  key.links = 60;
  key.candidate_paths = 40;
  key.seed = 3;
  key.intensity = 5.0;
  return key;
}

std::string key_params(std::size_t runs = kRuns) {
  return "nodes=30 links=60 paths=40 seed=3 intensity=5 runs=" +
         std::to_string(runs);
}

/// One ReactorServer on an ephemeral loopback port, run on its own loop
/// thread and stopped on scope exit.
class LoopbackServer {
 public:
  LoopbackServer()
      : server_(ReactorServerConfig{.port = 0,
                                    .threads = 2,
                                    .cache_capacity = 2,
                                    .request_timeout_s = 120.0}),
        runner_([this] { server_.run(); }) {}
  ~LoopbackServer() {
    server_.stop();
    runner_.join();
  }
  std::uint16_t port() const { return server_.port(); }

 private:
  ReactorServer server_;
  std::thread runner_;
};

std::string join_csv(const std::vector<std::size_t>& values) {
  std::string csv;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(values[i]);
  }
  return csv;
}

std::vector<std::size_t> parse_ranks(const std::string& csv) {
  std::vector<std::size_t> ranks;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t stop = comma == std::string::npos ? csv.size() : comma;
    ranks.push_back(std::stoull(csv.substr(start, stop - start)));
    start = stop + 1;
  }
  return ranks;
}

TEST(ClusterVerbs, ShardEvalEqualsEngineSliceRanks) {
  LoopbackServer server;
  WorkloadCache cache(1);
  const auto cw = cache.get(shard_key());
  const core::KernelErEngine& engine = cw->kernel_engine(kRuns);

  TcpClient client("127.0.0.1", server.port(), 30.0);
  const Response r = parse_response(client.call_line(
      "shard-eval " + key_params() + " subset=0,1,2,7 begin=5 end=20"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.at("ranks"), join_csv(engine.slice_ranks({0, 1, 2, 7}, 5, 20)));
  EXPECT_EQ(r.at("begin"), "5");
  EXPECT_EQ(r.at("end"), "20");

  // Bad ranges are application errors, not hangs.
  EXPECT_FALSE(parse_response(client.call_line("shard-eval " + key_params() +
                                               " subset=0 begin=9 end=4"))
                   .ok);
  EXPECT_FALSE(parse_response(client.call_line("shard-eval " + key_params() +
                                               " subset=0 begin=0 end=9999"))
                   .ok);
}

TEST(ClusterVerbs, SweepAddIsIdempotentAndReplaysCommitted) {
  LoopbackServer server;
  WorkloadCache cache(1);
  const auto cw = cache.get(shard_key());
  const core::KernelErEngine& engine = cw->kernel_engine(kRuns);

  // Local twin of the server's session.
  const auto twin = engine.make_shard_accumulator(0, kRuns);

  TcpClient client("127.0.0.1", server.port(), 30.0);
  const std::string slice = " begin=0 end=" + std::to_string(kRuns);
  ASSERT_TRUE(parse_response(client.call_line("shard-sweep sweep=s1 op=init" +
                                              slice + " " + key_params()))
                  .ok);

  const Response probe = parse_response(
      client.call_line("shard-sweep sweep=s1 op=probe path=3" + slice));
  ASSERT_TRUE(probe.ok) << probe.error;
  EXPECT_EQ(probe.at("bits"), encode_bits(twin->probe(3)));

  const Response add = parse_response(
      client.call_line("shard-sweep sweep=s1 op=add path=3" + slice));
  ASSERT_TRUE(add.ok) << add.error;
  EXPECT_EQ(add.at("bits"), encode_bits(twin->add(3)));

  // A re-sent add must return the memoized bits, not re-commit.
  const Response again = parse_response(
      client.call_line("shard-sweep sweep=s1 op=add path=3" + slice));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.at("bits"), add.at("bits"));

  const Response probe2 = parse_response(
      client.call_line("shard-sweep sweep=s1 op=probe path=5" + slice));
  ASSERT_TRUE(probe2.ok) << probe2.error;
  EXPECT_EQ(probe2.at("bits"), encode_bits(twin->probe(5)));

  // Replay: a fresh session initialized with committed=3 must answer
  // exactly like the original session.
  const Response replay = parse_response(
      client.call_line("shard-sweep sweep=s2 op=init committed=3" + slice +
                       " " + key_params()));
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.at("committed"), "1");
  const Response probe3 = parse_response(
      client.call_line("shard-sweep sweep=s2 op=probe path=5" + slice));
  ASSERT_TRUE(probe3.ok) << probe3.error;
  EXPECT_EQ(probe3.at("bits"), probe2.at("bits"));

  // Unknown sessions and ops are structured errors.
  EXPECT_FALSE(parse_response(client.call_line(
                                  "shard-sweep sweep=nope op=probe path=1" +
                                  slice))
                   .ok);
  EXPECT_FALSE(parse_response(client.call_line(
                                  "shard-sweep sweep=s1 op=warp path=1" +
                                  slice))
                   .ok);

  // end is idempotent too.
  EXPECT_EQ(parse_response(
                client.call_line("shard-sweep sweep=s1 op=end" + slice))
                .at("ended"),
            "1");
  EXPECT_EQ(parse_response(
                client.call_line("shard-sweep sweep=s1 op=end" + slice))
                .at("ended"),
            "0");
}

TEST(ClusterVerbs, TwoSliceMergeEqualsEngineBitwise) {
  // Two shard-sweep sessions over [0, k) and [k, runs) drive a greedy
  // trajectory.  Summing class weights over the slices' bits in global
  // scenario_classes() order must give the engine accumulator's gain()
  // and value() bit for bit, and two shard-eval slices must concatenate
  // to scenario_ranks().  k = 67 puts a word boundary inside slice one.
  constexpr std::size_t runs = 80;
  constexpr std::size_t k = 67;
  LoopbackServer server;
  WorkloadCache cache(1);
  const auto cw = cache.get(shard_key());
  const core::KernelErEngine& engine = cw->kernel_engine(runs);
  const core::ScenarioClasses& classes = engine.scenario_classes();
  const std::size_t paths = cw->workload.system->path_count();
  const auto local = engine.make_accumulator();

  TcpClient client("127.0.0.1", server.port(), 30.0);
  const std::array<std::pair<std::size_t, std::size_t>, 2> slices{
      {{0, k}, {k, runs}}};
  auto slice_params = [&](std::size_t s) {
    return " begin=" + std::to_string(slices[s].first) +
           " end=" + std::to_string(slices[s].second);
  };
  for (std::size_t s = 0; s < slices.size(); ++s) {
    ASSERT_TRUE(parse_response(
                    client.call_line("shard-sweep sweep=m op=init" +
                                     slice_params(s) + " " + key_params(runs)))
                    .ok);
  }
  // One verb over both slices: the reply bits, indexed by scenario.
  auto merged_bits = [&](const std::string& op, std::size_t path) {
    std::vector<bool> bits(runs, false);
    for (std::size_t s = 0; s < slices.size(); ++s) {
      const Response r = parse_response(client.call_line(
          "shard-sweep sweep=m op=" + op + " path=" + std::to_string(path) +
          slice_params(s)));
      EXPECT_TRUE(r.ok) << r.error;
      const std::vector<std::uint64_t> words = decode_bits(r.at("bits"));
      for (std::size_t i = slices[s].first; i < slices[s].second; ++i) {
        const std::size_t at = i - slices[s].first;
        bits[i] = at / 64 < words.size() && ((words[at / 64] >> (at % 64)) & 1);
      }
    }
    return bits;
  };
  auto class_sum = [&](const std::vector<bool>& bits, double start) {
    for (std::size_t c = 0; c < classes.count(); ++c) {
      if (bits[classes.representative[c]]) start += classes.weights[c];
    }
    return start;
  };

  std::vector<std::size_t> committed;
  double value = 0.0;
  for (std::size_t step = 0; step < 8; ++step) {
    std::size_t best = paths;
    double best_gain = 0.0;
    for (std::size_t p = 0; p < paths; ++p) {
      const double gain = class_sum(merged_bits("probe", p), 0.0);
      ASSERT_EQ(gain, local->gain(p)) << "step " << step << " path " << p;
      if (gain > best_gain) {
        best = p;
        best_gain = gain;
      }
    }
    if (best == paths) break;  // Nothing adds rank any more.
    value = class_sum(merged_bits("add", best), value);
    local->add(best);
    ASSERT_EQ(value, local->value()) << "step " << step;
    committed.push_back(best);

    std::vector<std::size_t> ranks;
    for (std::size_t s = 0; s < slices.size(); ++s) {
      const Response r = parse_response(client.call_line(
          "shard-eval " + key_params(runs) +
          " subset=" + join_csv(committed) + slice_params(s)));
      ASSERT_TRUE(r.ok) << r.error;
      for (const std::size_t rank : parse_ranks(r.at("ranks"))) {
        ranks.push_back(rank);
      }
    }
    EXPECT_EQ(ranks, engine.scenario_ranks(committed)) << "step " << step;
  }
  EXPECT_GE(committed.size(), 2u);

  // heartbeat counts the two live slice sessions.
  const Response beat = parse_response(client.call_line("heartbeat"));
  ASSERT_TRUE(beat.ok) << beat.error;
  EXPECT_EQ(beat.at("alive"), "1");
  EXPECT_EQ(beat.at("sweeps"), "2");
}

}  // namespace
}  // namespace rnt::service
