// Memoization of the expensive per-workload artifacts across service
// requests: the topology, the candidate PathSystem, the failure model, the
// cost model, and the ProbBound expected-availability tables.
//
// A NOC issues many queries (re-plan a basis, evaluate ER, localize) against
// the *same* deployed topology while budgets and failure estimates change;
// rebuilding the workload per query dominates the cost of answering it.
// The cache is keyed by everything exp::make_workload consumes — topology
// spec, monitor/candidate-path parameters, seed, failure intensity — so a
// cached entry is observably identical to a fresh build.
//
// Concurrency: the first request for a key builds the entry outside the
// cache lock while concurrent requests for the same key wait on a shared
// future (counted as hits — they do not rebuild).  Entries are immutable
// once built, so any number of request threads may share one.  An LRU bound
// caps resident workloads; only fully built entries are evicted.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/expected_rank.h"
#include "core/kernel_er.h"
#include "exp/workload.h"

namespace rnt::service {

/// Identifies one workload: the exp::WorkloadSpec parameters plus the
/// custom-topology sizes used when no AS profile is named.
struct WorkloadKey {
  std::string topology;  ///< AS profile name ("AS1755"), or "" for custom.
  std::size_t nodes = 87;           ///< Custom topology only.
  std::size_t links = 161;          ///< Custom topology only.
  std::size_t candidate_paths = 400;
  std::uint64_t seed = 1;
  double intensity = 5.0;
  bool unit_costs = false;

  auto operator<=>(const WorkloadKey&) const = default;

  /// Human-readable "AS1755/paths=400/seed=1/..." form for logs.
  std::string describe() const;
};

/// A fully built workload plus its memoized ProbBound availability tables.
/// Immutable after construction; all queries used by the handlers are
/// const and thread-safe.
struct CachedWorkload {
  explicit CachedWorkload(exp::Workload w)
      : workload(std::move(w)),
        prob_bound(*workload.system, *workload.failures) {}

  exp::Workload workload;
  core::ProbBoundEr prob_bound;

  /// Bit-packed Monte Carlo engine over the monte-rome mixture (seed
  /// workload.seed * 101 — the same sampler and seeding as the kSelect
  /// monte-rome branch, so both score the identical scenarios).  One
  /// engine per distinct `runs` value, built on first use under a mutex
  /// and shared by every request thread afterwards: the engine is
  /// const-thread-safe and its internal mask-to-rank memo turns repeated
  /// ER queries on a cached workload into hash lookups.  Because the
  /// sampler is deterministic in (seed, runs), two services asked for the
  /// same runs count hold scenario-for-scenario identical engines.
  /// `mode` selects the rank kernel (auto | sliced | scalar — purely a
  /// performance knob, answers are bitwise identical);
  /// engines are cached per (runs, mode) because the mode is fixed at
  /// engine construction, before the engine is shared across threads.
  const core::KernelErEngine& kernel_engine(
      std::size_t runs = 50,
      core::KernelMode mode = core::KernelMode::kAuto) const;

 private:
  mutable std::mutex kernel_mu_;
  mutable std::map<std::pair<std::size_t, core::KernelMode>,
                   std::unique_ptr<core::KernelErEngine>>
      kernels_;
};

/// Thread-safe LRU cache of CachedWorkload entries.
class WorkloadCache {
 public:
  explicit WorkloadCache(std::size_t capacity = 8);

  /// Returns the cached entry for `key`, building it on first use.
  /// Rethrows the build error (and forgets the entry) when building fails.
  std::shared_ptr<const CachedWorkload> get(const WorkloadKey& key);

  struct Counters {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t size = 0;

    double hit_rate() const {
      const std::size_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Counters counters() const;

  std::size_t capacity() const { return capacity_; }

 private:
  using EntryFuture =
      std::shared_future<std::shared_ptr<const CachedWorkload>>;
  struct Entry {
    EntryFuture future;
    std::list<WorkloadKey>::iterator lru_pos;
  };

  /// Drops least-recently-used *built* entries while over capacity.
  /// Caller holds mu_.
  void evict_over_capacity();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<WorkloadKey, Entry> entries_;
  std::list<WorkloadKey> lru_;  ///< Front = most recently used.
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace rnt::service
