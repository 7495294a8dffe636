// Cluster coordinator: scenario-sharded ER evaluation and RoMe selection
// across worker processes, bitwise identical to a single-node run.
//
// The coordinator builds the workload locally (the same WorkloadCache the
// service uses, so scenario sampling is deterministic in the key), plans
// one contiguous scenario slice per worker with ShardPlanner, and fans
// requests out over the service's line protocol:
//
//   evaluate(R)  -> shard-eval per slice; workers return *integer* ranks,
//                   the coordinator pastes them into scenario order and
//                   applies the engine's own fixed chunked float reduction
//                   (reduce_ranks) — the summation tree never sees the
//                   sharding, so the bits match KernelErEngine::evaluate().
//   select(B)    -> core::rome over a cluster-backed ErEngine whose
//                   accumulator drives shard-sweep sessions: workers
//                   return one independence *bit* per scenario, and the
//                   coordinator sums class weights over those bits in
//                   global class order, replaying KernelAccumulator's
//                   exact float accumulation.
//
// Failures are first-class: every RPC runs under deadlines with bounded
// retry (service::ClientOptions); a transport failure marks the worker
// dead and reassigns its slices to survivors (assign_owners), and sweep
// sessions are re-created on the inheritor by replaying the committed
// selection — so killing a worker mid-sweep changes latency, never a bit
// of the answer.  An optional background heartbeat prunes dead workers
// between requests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/shard_planner.h"
#include "core/kernel_er.h"
#include "core/rome.h"
#include "core/selection.h"
#include "service/metrics.h"
#include "service/workload_cache.h"

namespace rnt::cluster {

struct CoordinatorConfig {
  /// Per-RPC deadlines and bounded retry (applies to every shard call).
  service::ClientOptions rpc{.connect_timeout_s = 5.0,
                             .reply_timeout_s = 60.0,
                             .retries = 2,
                             .backoff_s = 0.05};
  /// Monte Carlo runs for the kernel engine (the paper's k; 50 in fig5).
  std::size_t runs = 50;
  /// Heartbeat monitor period; 0 disables the background thread (failures
  /// are still detected inline by the RPC path).
  double heartbeat_interval_s = 0.0;
  /// Deadline for one heartbeat probe.
  double heartbeat_deadline_s = 1.0;
  /// Consecutive missed heartbeats before a worker is declared dead.
  std::size_t heartbeat_misses = 2;
};

class Coordinator {
 public:
  /// Builds the workload for `key` locally and plans slices over `workers`
  /// (weights must be positive).  Does not touch the network; call hello()
  /// to verify the fleet.
  Coordinator(const service::WorkloadKey& key,
              std::vector<WorkerEndpoint> workers,
              CoordinatorConfig config = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// worker-hello to every endpoint; unreachable workers are marked dead
  /// (their slices fail over) and reported as error responses.  Throws
  /// when no worker at all is reachable.
  std::vector<service::Response> hello();

  /// Cluster ER of `subset`, bitwise identical to
  /// engine().evaluate(subset).
  double evaluate(const std::vector<std::size_t>& subset);

  /// Cluster RoMe at `budget`, bitwise identical to single-node
  /// core::rome over engine().
  core::Selection select(double budget, core::SelectorStats* stats = nullptr);

  /// The local twin engine (also the merge oracle).
  const core::KernelErEngine& engine() const;
  const service::CachedWorkload& workload() const { return *workload_; }

  const std::vector<Slice>& slices() const { return slices_; }
  std::size_t worker_count() const { return client_.size(); }
  const WorkerEndpoint& endpoint(std::size_t worker) const {
    return client_.endpoint(worker);
  }
  std::size_t alive_workers() const { return client_.alive_count(); }
  /// Non-empty slices reassigned away from their dead home worker so far.
  std::size_t failovers() const;
  /// Current owner of slice `slice`; throws when no worker is alive.
  std::size_t owner_of(std::size_t slice) const;

  service::ServiceMetrics::Snapshot metrics() const {
    return metrics_.snapshot();
  }

  /// Starts/stops the background heartbeat monitor (no-op when
  /// heartbeat_interval_s == 0; the destructor always stops it).
  void start_heartbeats();
  void stop_heartbeats();

  /// Test hook, fired with a monotonically increasing operation index
  /// right before every fan-out — lets tests kill a worker at a precise
  /// point mid-sweep.  Pass nullptr to clear.
  void set_fault_hook(std::function<void(std::size_t)> hook);

 private:
  friend class ClusterAccumulator;
  friend class ClusterEngine;

  /// Runs `make_request(slice)` against the current owner of every
  /// non-empty slice, one thread per slice, failing slices over on
  /// TransportError until they succeed or no worker is left.  `ensure`
  /// (optional) runs as ensure(owner, slice_index) against the owner
  /// first — the sweep path uses it to lazily init sessions on whichever
  /// worker currently owns the slice.
  std::vector<service::Response> fan_out(
      const std::function<service::Request(const Slice&)>& make_request,
      const std::function<void(std::size_t, std::size_t)>& ensure = {});

  /// One slice's robust call loop (owner lookup -> ensure -> call ->
  /// failover on transport error).
  service::Response robust_slice_call(
      std::size_t slice_index,
      const std::function<service::Request(const Slice&)>& make_request,
      const std::function<void(std::size_t, std::size_t)>& ensure);

  /// Marks a worker dead and reassigns its slices to survivors.
  void note_worker_down(std::size_t worker);

  /// Request skeleton carrying the workload key + runs, so any worker
  /// resolves the identical engine from its own cache.
  service::Request base_request(service::RequestType type) const;

  /// Process-unique sweep-session id ("swp-<pid>-<n>").
  static std::string next_sweep_id();

  void heartbeat_loop();

  service::WorkloadKey key_;
  CoordinatorConfig config_;
  service::WorkloadCache cache_{1};
  std::shared_ptr<const service::CachedWorkload> workload_;
  ClusterClient client_;
  std::vector<Slice> slices_;

  mutable std::mutex state_mu_;  ///< Guards owners_ and failovers_.
  std::vector<std::size_t> owners_;
  std::size_t failovers_ = 0;

  std::atomic<std::size_t> op_index_{0};
  std::mutex hook_mu_;
  std::function<void(std::size_t)> fault_hook_;

  service::ServiceMetrics metrics_;

  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;
  std::thread hb_thread_;
};

}  // namespace rnt::cluster
