// The sharded cluster layer: shard planner, coordinator merge
// determinism, and failover.
//
// The acceptance property throughout: whatever the worker count, the
// slice weights, or which worker dies mid-run, the cluster's ER values
// and RoMe selections must be *bitwise* identical to the single-node
// KernelErEngine — workers only ever ship integers (ranks and
// independence bits), and the coordinator replays the engine's exact
// float summation order.  EXPECT_EQ on doubles here is deliberate.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/coordinator.h"
#include "cluster/shard_planner.h"
#include "core/rome.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/reactor_server.h"
#include "service/workload_cache.h"

namespace rnt::cluster {
namespace {

// --------------------------------------------------------------------------
// Shard planner
// --------------------------------------------------------------------------

TEST(ShardPlanner, SlicesAreContiguousProportionalAndDeterministic) {
  const std::vector<double> weights{1.0, 1.0, 2.0};
  const std::vector<Slice> slices = plan_slices(100, weights);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].begin, 0u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(slices[i].begin, slices[i - 1].end);
    }
    covered += slices[i].size();
  }
  EXPECT_EQ(covered, 100u);
  EXPECT_EQ(slices[0].size(), 25u);
  EXPECT_EQ(slices[1].size(), 25u);
  EXPECT_EQ(slices[2].size(), 50u);
  EXPECT_EQ(plan_slices(100, weights), slices);  // Pure function.
}

TEST(ShardPlanner, LargestRemainderIsWithinOneOfProportional) {
  const std::vector<double> weights{1.0, 1.0, 1.0};
  const std::vector<Slice> slices = plan_slices(50, weights);
  std::size_t covered = 0;
  for (const Slice& s : slices) {
    // 50/3: every worker gets 16 or 17.
    EXPECT_GE(s.size(), 16u);
    EXPECT_LE(s.size(), 17u);
    covered += s.size();
  }
  EXPECT_EQ(covered, 50u);
}

TEST(ShardPlanner, MoreWorkersThanScenariosLeavesEmptySlices) {
  const std::vector<Slice> slices = plan_slices(2, {1.0, 1.0, 1.0, 1.0});
  std::size_t covered = 0, empty = 0;
  for (const Slice& s : slices) {
    covered += s.size();
    empty += s.empty() ? 1 : 0;
  }
  EXPECT_EQ(covered, 2u);
  EXPECT_EQ(empty, 2u);
}

TEST(ShardPlanner, RejectsBadWeights) {
  EXPECT_THROW(plan_slices(10, {}), std::invalid_argument);
  EXPECT_THROW(plan_slices(10, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(plan_slices(10, {1.0, -2.0}), std::invalid_argument);
}

TEST(ShardPlanner, AssignOwnersKeepsAliveAndFailsOverRoundRobin) {
  EXPECT_EQ(assign_owners(3, {true, true, true}),
            (std::vector<std::size_t>{0, 1, 2}));
  // Worker 1 dead: its slice goes to a survivor; the others stay home.
  const std::vector<std::size_t> one_dead =
      assign_owners(3, {true, false, true});
  EXPECT_EQ(one_dead[0], 0u);
  EXPECT_EQ(one_dead[2], 2u);
  EXPECT_EQ(one_dead[1], 0u);  // First survivor in round-robin order.
  // Two dead, one survivor: everything lands on it.
  EXPECT_EQ(assign_owners(3, {false, true, false}),
            (std::vector<std::size_t>{1, 1, 1}));
  // Dead slices spread round-robin over multiple survivors.
  const std::vector<std::size_t> spread =
      assign_owners(4, {true, false, false, true});
  EXPECT_EQ(spread[1], 0u);
  EXPECT_EQ(spread[2], 3u);
  EXPECT_THROW(assign_owners(2, {false, false}), std::invalid_argument);
  EXPECT_THROW(assign_owners(2, {true}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Bit-vector wire codec
// --------------------------------------------------------------------------

TEST(BitCodec, RoundTripsAndRejectsGarbage) {
  const std::vector<std::uint64_t> words{0x0123456789abcdefULL, 0, ~0ULL};
  EXPECT_EQ(service::decode_bits(service::encode_bits(words)), words);
  EXPECT_TRUE(service::encode_bits({}).empty());
  EXPECT_THROW(service::decode_bits("abc"), std::invalid_argument);
  EXPECT_THROW(service::decode_bits("000000000000000Z"),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// In-process worker fleet
// --------------------------------------------------------------------------

constexpr std::size_t kRuns = 25;

service::WorkloadKey test_key() {
  service::WorkloadKey key;
  key.nodes = 30;
  key.links = 60;
  key.candidate_paths = 40;
  key.seed = 3;
  key.intensity = 5.0;
  return key;
}

std::string key_params() {
  return "nodes=30 links=60 paths=40 seed=3 intensity=5 runs=" +
         std::to_string(kRuns);
}

/// N loopback worker processes' worth of ReactorServers, each on its own
/// ephemeral port with its own loop thread — the full wire path, one
/// process.
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
      worker->port = worker->server->port();
      worker->runner = std::thread(
          [srv = worker->server.get()] { srv->run(); });
      workers_.push_back(std::move(worker));
    }
  }

  ~Fleet() {
    for (std::size_t i = 0; i < workers_.size(); ++i) kill(i);
  }

  std::vector<WorkerEndpoint> endpoints(
      std::vector<double> weights = {}) const {
    std::vector<WorkerEndpoint> eps;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerEndpoint ep;
      ep.port = workers_[i]->port;
      ep.weight = i < weights.size() ? weights[i] : 1.0;
      eps.push_back(ep);
    }
    return eps;
  }

  /// Stops worker `i` for good and destroys the server, so the listen fd
  /// closes and reconnects are *refused* — exactly like a killed process.
  /// (Merely stopping the server would leave the kernel accept queue
  /// open: a blackhole that costs a full reply deadline per failover.)
  /// Idempotent.
  void kill(std::size_t i) {
    Worker& w = *workers_[i];
    if (w.stopped) return;
    w.stopped = true;
    w.server->stop();
    w.runner.join();
    w.server.reset();
  }

 private:
  struct Worker {
    std::unique_ptr<service::ReactorServer> server;
    std::uint16_t port = 0;
    std::thread runner;
    bool stopped = false;
  };
  std::vector<std::unique_ptr<Worker>> workers_;
};

CoordinatorConfig fast_config() {
  CoordinatorConfig config;
  config.runs = kRuns;
  config.rpc.connect_timeout_s = 2.0;
  config.rpc.reply_timeout_s = 30.0;
  config.rpc.retries = 1;
  config.rpc.backoff_s = 0.01;
  return config;
}

double budget_for(const exp::Workload& w, double frac) {
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return frac * w.costs.subset_cost(*w.system, all);
}

// --------------------------------------------------------------------------
// Merge determinism
// --------------------------------------------------------------------------

TEST(Cluster, EvaluateBitwiseMatchesSingleNodeAcrossWorkerCounts) {
  for (const std::size_t worker_count : {1u, 2u, 4u}) {
    Fleet fleet(worker_count);
    Coordinator coord(test_key(), fleet.endpoints(), fast_config());
    for (const service::Response& r : coord.hello()) {
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.at("worker"), "1");
    }
    const core::KernelErEngine& engine = coord.engine();
    ASSERT_EQ(engine.scenario_count(), kRuns);

    const std::size_t paths = coord.workload().workload.system->path_count();
    std::vector<std::size_t> all(paths);
    std::iota(all.begin(), all.end(), std::size_t{0});
    const std::vector<std::vector<std::size_t>> subsets{
        {0}, {5, 10, 15}, {paths - 1, 0, paths / 2}, all};
    for (const auto& subset : subsets) {
      EXPECT_EQ(coord.evaluate(subset), engine.evaluate(subset))
          << worker_count << " workers";
    }
    EXPECT_EQ(coord.failovers(), 0u);
    EXPECT_EQ(coord.alive_workers(), worker_count);
  }
}

TEST(Cluster, UnevenWeightsStillMergeBitwise) {
  Fleet fleet(2);
  Coordinator coord(test_key(), fleet.endpoints({1.0, 3.0}), fast_config());
  ASSERT_EQ(coord.slices()[0].size() + coord.slices()[1].size(), kRuns);
  EXPECT_LT(coord.slices()[0].size(), coord.slices()[1].size());
  const core::KernelErEngine& engine = coord.engine();
  EXPECT_EQ(coord.evaluate({0, 1, 2, 3}), engine.evaluate({0, 1, 2, 3}));
}

TEST(Cluster, SelectBitwiseMatchesSingleNode) {
  Fleet fleet(2);
  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  const exp::Workload& w = coord.workload().workload;
  for (const double frac : {0.15, 0.3}) {
    const double budget = budget_for(w, frac);
    core::SelectorStats cluster_stats;
    const core::Selection sel = coord.select(budget, &cluster_stats);
    const core::Selection local =
        core::rome(*w.system, w.costs, budget, coord.engine());
    ASSERT_FALSE(sel.paths.empty());
    EXPECT_EQ(sel.paths, local.paths);
    EXPECT_EQ(sel.cost, local.cost);
    EXPECT_EQ(sel.objective, local.objective);  // Bitwise.
    EXPECT_GT(cluster_stats.gain_evaluations, 0u);
  }
  EXPECT_EQ(coord.failovers(), 0u);
}

// --------------------------------------------------------------------------
// Failover
// --------------------------------------------------------------------------

TEST(Cluster, WorkerKilledDuringGainSweepDoesNotChangeSelection) {
  Fleet fleet(2);
  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  const exp::Workload& w = coord.workload().workload;
  const double budget = budget_for(w, 0.3);

  // Kill worker 1 at the 13th sweep fan-out — deterministically inside
  // the best-single gain sweep, while its sessions are live.
  std::atomic<bool> killed{false};
  coord.set_fault_hook([&](std::size_t op) {
    if (op == 12 && !killed.exchange(true)) fleet.kill(1);
  });
  const core::Selection sel = coord.select(budget);
  ASSERT_TRUE(killed.load());

  const core::Selection local =
      core::rome(*w.system, w.costs, budget, coord.engine());
  EXPECT_EQ(sel.paths, local.paths);
  EXPECT_EQ(sel.cost, local.cost);
  EXPECT_EQ(sel.objective, local.objective);  // Bitwise despite the kill.
  EXPECT_GE(coord.failovers(), 1u);
  EXPECT_EQ(coord.alive_workers(), 1u);
}

TEST(Cluster, WorkerKilledMidGreedyReplaysCommittedSelection) {
  Fleet fleet(2);
  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  const exp::Workload& w = coord.workload().workload;
  const double budget = budget_for(w, 0.3);

  // Late kill: deep into the greedy phase, after paths have been
  // committed — the inheriting worker must rebuild the session by
  // replaying the committed selection to stay bit-exact.
  std::atomic<bool> killed{false};
  coord.set_fault_hook([&](std::size_t op) {
    if (op == 95 && !killed.exchange(true)) fleet.kill(0);
  });
  const core::Selection sel = coord.select(budget);
  ASSERT_TRUE(killed.load());

  const core::Selection local =
      core::rome(*w.system, w.costs, budget, coord.engine());
  EXPECT_EQ(sel.paths, local.paths);
  EXPECT_EQ(sel.objective, local.objective);
  EXPECT_GE(coord.failovers(), 1u);
  EXPECT_EQ(coord.alive_workers(), 1u);

  // The survivor keeps answering: a post-failover evaluate is still the
  // single-node answer.
  EXPECT_EQ(coord.evaluate(sel.paths), coord.engine().evaluate(sel.paths));
}

TEST(Cluster, EvaluateFailsOverAfterWorkerDeath) {
  Fleet fleet(3);
  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  const core::KernelErEngine& engine = coord.engine();
  EXPECT_EQ(coord.evaluate({0, 1, 2}), engine.evaluate({0, 1, 2}));
  fleet.kill(1);
  EXPECT_EQ(coord.evaluate({0, 1, 2}), engine.evaluate({0, 1, 2}));
  EXPECT_EQ(coord.evaluate({3, 4}), engine.evaluate({3, 4}));
  EXPECT_GE(coord.failovers(), 1u);
  EXPECT_EQ(coord.alive_workers(), 2u);
  // Slice 1 now belongs to a survivor; slices 0 and 2 stayed home.
  EXPECT_NE(coord.owner_of(1), 1u);
  EXPECT_EQ(coord.owner_of(0), 0u);
  EXPECT_EQ(coord.owner_of(2), 2u);
}

TEST(Cluster, AllWorkersDeadThrows) {
  Fleet fleet(2);
  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  EXPECT_EQ(coord.evaluate({0}), coord.engine().evaluate({0}));
  fleet.kill(0);
  fleet.kill(1);
  EXPECT_THROW((void)coord.evaluate({0, 1}), std::runtime_error);
  EXPECT_EQ(coord.alive_workers(), 0u);
}

TEST(Cluster, HelloReportsUnreachableWorkersAndFailsThemOver) {
  Fleet fleet(2);
  std::vector<WorkerEndpoint> eps = fleet.endpoints();
  fleet.kill(1);
  CoordinatorConfig config = fast_config();
  config.rpc.retries = 0;
  Coordinator coord(test_key(), std::move(eps), config);
  const std::vector<service::Response> hellos = coord.hello();
  ASSERT_EQ(hellos.size(), 2u);
  EXPECT_TRUE(hellos[0].ok) << hellos[0].error;
  EXPECT_FALSE(hellos[1].ok);
  EXPECT_EQ(coord.alive_workers(), 1u);
  // The dead worker's slice already failed over at hello time.
  EXPECT_EQ(coord.owner_of(1), 0u);
  EXPECT_EQ(coord.evaluate({0, 1}), coord.engine().evaluate({0, 1}));
}

TEST(Cluster, HeartbeatMonitorPrunesDeadWorker) {
  Fleet fleet(2);
  CoordinatorConfig config = fast_config();
  config.heartbeat_interval_s = 0.03;
  config.heartbeat_deadline_s = 0.5;
  config.heartbeat_misses = 2;
  Coordinator coord(test_key(), fleet.endpoints(), config);
  ASSERT_TRUE(coord.hello()[1].ok);
  coord.start_heartbeats();
  fleet.kill(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (coord.alive_workers() == 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  coord.stop_heartbeats();
  EXPECT_EQ(coord.alive_workers(), 1u);
  EXPECT_GE(coord.failovers(), 1u);
  // Detection happened in the background; the next request needs no
  // inline transport failure to route around the corpse.
  EXPECT_EQ(coord.evaluate({0, 1, 2}), coord.engine().evaluate({0, 1, 2}));
}

// --------------------------------------------------------------------------
// Shard verbs on the wire
// --------------------------------------------------------------------------

TEST(ClusterVerbs, ShardEvalEqualsEngineSliceRanks) {
  Fleet fleet(1);
  service::WorkloadCache cache(1);
  const auto cw = cache.get(test_key());
  const core::KernelErEngine& engine = cw->kernel_engine(kRuns);

  service::TcpClient client("127.0.0.1", fleet.endpoints()[0].port, 30.0);
  const service::Response r = service::parse_response(client.call_line(
      "shard-eval " + key_params() + " subset=0,1,2,7 begin=5 end=20"));
  ASSERT_TRUE(r.ok) << r.error;
  const std::vector<std::size_t> ranks =
      engine.slice_ranks({0, 1, 2, 7}, 5, 20);
  std::string expected;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) expected += ',';
    expected += std::to_string(ranks[i]);
  }
  EXPECT_EQ(r.at("ranks"), expected);
  EXPECT_EQ(r.at("begin"), "5");
  EXPECT_EQ(r.at("end"), "20");

  // Bad ranges are application errors, not hangs.
  EXPECT_FALSE(service::parse_response(client.call_line(
                   "shard-eval " + key_params() + " subset=0 begin=9 end=4"))
                   .ok);
  EXPECT_FALSE(
      service::parse_response(
          client.call_line("shard-eval " + key_params() +
                           " subset=0 begin=0 end=9999"))
          .ok);
}

TEST(ClusterVerbs, SweepAddIsIdempotentAndReplaysCommitted) {
  Fleet fleet(1);
  service::WorkloadCache cache(1);
  const auto cw = cache.get(test_key());
  const core::KernelErEngine& engine = cw->kernel_engine(kRuns);

  // Local twin of the worker's session.
  const auto twin = engine.make_shard_accumulator(0, kRuns);

  service::TcpClient client("127.0.0.1", fleet.endpoints()[0].port, 30.0);
  const std::string slice = " begin=0 end=" + std::to_string(kRuns);
  ASSERT_TRUE(service::parse_response(
                  client.call_line("shard-sweep sweep=s1 op=init" + slice +
                                   " " + key_params()))
                  .ok);

  const service::Response probe = service::parse_response(
      client.call_line("shard-sweep sweep=s1 op=probe path=3" + slice));
  ASSERT_TRUE(probe.ok) << probe.error;
  EXPECT_EQ(probe.at("bits"), service::encode_bits(twin->probe(3)));

  const service::Response add = service::parse_response(
      client.call_line("shard-sweep sweep=s1 op=add path=3" + slice));
  ASSERT_TRUE(add.ok) << add.error;
  EXPECT_EQ(add.at("bits"), service::encode_bits(twin->add(3)));

  // A retried add must return the memoized bits, not re-commit.
  const service::Response again = service::parse_response(
      client.call_line("shard-sweep sweep=s1 op=add path=3" + slice));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.at("bits"), add.at("bits"));

  const service::Response probe2 = service::parse_response(
      client.call_line("shard-sweep sweep=s1 op=probe path=5" + slice));
  ASSERT_TRUE(probe2.ok) << probe2.error;
  EXPECT_EQ(probe2.at("bits"), service::encode_bits(twin->probe(5)));

  // Failover replay: a fresh session initialized with committed=3 must
  // answer exactly like the original session.
  const service::Response replay = service::parse_response(
      client.call_line("shard-sweep sweep=s2 op=init committed=3" + slice +
                       " " + key_params()));
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.at("committed"), "1");
  const service::Response probe3 = service::parse_response(
      client.call_line("shard-sweep sweep=s2 op=probe path=5" + slice));
  ASSERT_TRUE(probe3.ok) << probe3.error;
  EXPECT_EQ(probe3.at("bits"), probe2.at("bits"));

  // Unknown sessions and ops are structured errors.
  EXPECT_FALSE(service::parse_response(
                   client.call_line("shard-sweep sweep=nope op=probe path=1" +
                                    slice))
                   .ok);
  EXPECT_FALSE(service::parse_response(
                   client.call_line("shard-sweep sweep=s1 op=warp path=1" +
                                    slice))
                   .ok);

  // end is idempotent too.
  EXPECT_EQ(service::parse_response(
                client.call_line("shard-sweep sweep=s1 op=end" + slice))
                .at("ended"),
            "1");
  EXPECT_EQ(service::parse_response(
                client.call_line("shard-sweep sweep=s1 op=end" + slice))
                .at("ended"),
            "0");
}

// --------------------------------------------------------------------------
// Client deadlines and bounded retry
// --------------------------------------------------------------------------

/// A listener that accepts connections and never replies — the blackholed
/// server a read deadline exists for.
class SilentListener {
 public:
  SilentListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 4) != 0) {
      throw std::runtime_error("SilentListener: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      while (true) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // Listener closed.
        accepted_.push_back(conn);
      }
    });
  }

  ~SilentListener() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    acceptor_.join();
    for (const int conn : accepted_) ::close(conn);
  }

  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<int> accepted_;
};

TEST(TcpClientDeadlines, ReplyTimeoutTriggersBoundedRetry) {
  SilentListener listener;
  service::ClientOptions options;
  options.connect_timeout_s = 2.0;
  options.reply_timeout_s = 0.2;
  options.retries = 1;
  options.backoff_s = 0.01;
  service::TcpClient client("127.0.0.1", listener.port(), options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.call_line("ping"), std::runtime_error);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Two bounded attempts, not a hang: well under the no-deadline default.
  EXPECT_LT(elapsed, 5.0);
  EXPECT_GE(elapsed, 0.2);             // At least one full reply deadline.
  EXPECT_EQ(client.reconnects(), 1u);  // Exactly the configured retry.
}

TEST(TcpClientDeadlines, ConnectRefusedExhaustsRetriesQuickly) {
  // Grab a loopback port that is then closed again: connecting must be
  // refused, retried `retries` times, and thrown — never parked in the
  // kernel's minutes-long connect timeout.
  std::uint16_t dead_port = 0;
  {
    SilentListener probe;
    dead_port = probe.port();
  }
  service::ClientOptions options;
  options.connect_timeout_s = 0.5;
  options.reply_timeout_s = 0.5;
  options.retries = 2;
  options.backoff_s = 0.01;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(service::TcpClient("127.0.0.1", dead_port, options),
               std::runtime_error);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(ClusterClient, CallAfterMarkDeadThrowsTransportError) {
  Fleet fleet(1);
  ClusterClient client(fleet.endpoints(), service::ClientOptions{});
  service::Request ping;
  ping.type = service::RequestType::kPing;
  EXPECT_TRUE(client.call(0, ping).ok);
  EXPECT_TRUE(client.heartbeat(0, 2.0));
  client.mark_dead(0);
  EXPECT_FALSE(client.alive(0));
  EXPECT_EQ(client.alive_count(), 0u);
  EXPECT_THROW((void)client.call(0, ping), TransportError);
  EXPECT_FALSE(client.heartbeat(0, 0.5));
}

}  // namespace
}  // namespace rnt::cluster
