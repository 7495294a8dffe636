// Service-side observability: request/error counters per verb and the
// end-to-end handler latency distribution (min / mean / p50 / p95 / p99
// via util/stats).  Queryable through the `stats` request and dumped as
// a summary on shutdown.  The workload-cache hit rate lives in
// WorkloadCache::Counters; Service::stats() merges it into the reply.
//
// The reactor front end adds lock-free counters (shed requests/
// connections, idle timeouts, pipelined requests) and gauges (open
// connections, admission-queue depth).  They are atomics, not
// mutex-guarded, because the event loop bumps them on its hot path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "service/protocol.h"
#include "util/stats.h"

namespace rnt::service {

class ServiceMetrics {
 public:
  /// Records one handled request (latency measured around the handler).
  void record(RequestType type, bool ok, double seconds);

  /// Records one transport-level failure: a reply we computed but could
  /// not deliver (peer closed or reset mid-send).  Distinct from handler
  /// errors — the request itself succeeded.
  void record_transport_error();

  /// Records the solve time of one `infer` campaign (the CGLS portion of
  /// the handler, excluding workload construction).  Kept separate from
  /// the end-to-end latency distribution so the `stats` reply can expose
  /// inference solve percentiles even when other verbs dominate traffic.
  void record_infer_solve(double seconds);

  // Reactor counters (monotonic) -----------------------------------------

  /// A request answered `error overloaded: ...` because the admission
  /// queue was full.
  void note_shed_request() {
    shed_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A connection rejected at the connection cap (or under EMFILE).
  void note_shed_connection() {
    shed_connections_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A connection evicted for exceeding the idle timeout (slow loris).
  void note_idle_timeout() {
    idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A request decoded behind another one from the same read batch.
  void note_pipelined_request() {
    pipelined_requests_.fetch_add(1, std::memory_order_relaxed);
  }

  // Reactor gauges (last written value wins) -----------------------------

  void set_open_connections(std::size_t n) {
    open_connections_.store(n, std::memory_order_relaxed);
  }
  void set_queue_depth(std::size_t n) {
    queue_depth_.store(n, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::size_t requests = 0;
    std::size_t errors = 0;
    std::size_t transport_errors = 0;
    std::map<std::string, std::size_t> by_verb;
    double latency_min_ms = 0.0;
    double latency_mean_ms = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    std::size_t infer_requests = 0;
    double infer_solve_p50_ms = 0.0;
    double infer_solve_p95_ms = 0.0;
    std::uint64_t shed_requests = 0;
    std::uint64_t shed_connections = 0;
    std::uint64_t idle_timeouts = 0;
    std::uint64_t pipelined_requests = 0;
    std::size_t open_connections = 0;
    std::size_t queue_depth = 0;
  };
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<RequestType, std::size_t> counts_;
  std::size_t errors_ = 0;
  std::size_t transport_errors_ = 0;
  RunningStats latency_s_;
  EmpiricalDistribution latency_dist_s_;
  EmpiricalDistribution infer_solve_s_;

  std::atomic<std::uint64_t> shed_requests_{0};
  std::atomic<std::uint64_t> shed_connections_{0};
  std::atomic<std::uint64_t> idle_timeouts_{0};
  std::atomic<std::uint64_t> pipelined_requests_{0};
  std::atomic<std::size_t> open_connections_{0};
  std::atomic<std::size_t> queue_depth_{0};
};

}  // namespace rnt::service
