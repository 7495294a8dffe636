// Direct-call replay of service requests, for the traced run.
//
// Replayer answers a request line the way service::Service does, but by
// calling each layer's public functions itself: exp/graph/tomo/failures to
// build a workload, core::ProbBoundEr and core::KernelErEngine, the
// Selector zoo, online::{LinkEstimator, DriftDetector, Replanner}, infer,
// boolnt, tomo localization and exp::evaluate_selection.  Each call sits in
// a span of the layer it belongs to, so the trace can attribute a
// request's time.  Engines are wrapped in a forwarding ErEngine that times
// evaluate/gain/add; no selector inspects the engine's type, so the
// selection (and the reply) is unchanged.  With a null tracer the same
// code runs untraced, which gives the tracing overhead.
//
// Replies are formatted by service::format_response and must equal the
// server's reply byte for byte for every deterministic request.  Only the
// verbs and parameters the benchmark's scripts use are supported; other
// requests get an `error` reply.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "service/metrics.h"
#include "service/workload_cache.h"
#include "trace.h"

namespace perfbench {

namespace service = rnt::service;

/// Deterministic work counts of a replay (identical for two replays of
/// one script).
struct Counts {
  std::uint64_t gain_evals = 0;       ///< SelectorStats::gain_evaluations.
  std::uint64_t evaluate_calls = 0;   ///< SelectorStats::evaluate_calls.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t kernel_classes = 0;   ///< Over the kernel engines built.
  std::uint64_t cgls_iterations = 0;  ///< Summed over infer scenarios.
  std::uint64_t replan_reused = 0;
  std::uint64_t replan_gain_evals = 0;
  std::uint64_t localize_node_calls = 0;
  double candidates_sum = 0.0;        ///< Sum of mean-candidates.
};

class Replayer {
 public:
  explicit Replayer(Tracer* tracer);
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Answers one request line; returns the formatted reply line.
  std::string handle(const std::string& line);

  const Counts& counts() const { return counts_; }

  /// Rank-memo entries held by the resident kernel engines.
  std::uint64_t memo_entries() const;

 private:
  struct Deployment;
  struct Session;
  struct Sweep;

  service::Response dispatch(const service::Request& request);
  std::shared_ptr<Deployment> cache_get(const service::WorkloadKey& key);
  std::shared_ptr<Deployment> build(const service::WorkloadKey& key);
  const rnt::core::KernelErEngine& kernel_engine(Deployment& d,
                                                std::size_t runs,
                                                rnt::core::KernelMode mode);
  std::shared_ptr<Session> session_for(const service::WorkloadKey& key);
  service::Response select(const service::Request& request);
  service::Response shard_sweep(const service::Request& request);

  Tracer* tracer_;
  std::map<service::WorkloadKey,
           std::pair<std::shared_ptr<Deployment>,
                     std::list<service::WorkloadKey>::iterator>>
      cache_;
  std::list<service::WorkloadKey> lru_;
  std::map<service::WorkloadKey, std::shared_ptr<Session>> sessions_;
  std::map<std::string, std::shared_ptr<Sweep>> sweeps_;
  service::ServiceMetrics metrics_;
  Counts counts_;
};

}  // namespace perfbench
