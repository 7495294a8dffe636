#include "service/workload_cache.h"

#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/matrome.h"
#include "core/select_path.h"
#include "core/selectors/selector.h"
#include "graph/isp_topology.h"

namespace rnt::service {
namespace {

exp::Workload build_workload(const WorkloadKey& key) {
  if (!key.topology.empty()) {
    exp::WorkloadSpec spec;
    spec.topology = graph::parse_isp_topology(key.topology);
    spec.candidate_paths = key.candidate_paths;
    spec.seed = key.seed;
    spec.failure_intensity = key.intensity;
    spec.unit_costs = key.unit_costs;
    return exp::make_workload(spec);
  }
  return exp::make_custom_workload(key.nodes, key.links, key.candidate_paths,
                                   key.seed, key.intensity, key.unit_costs);
}

}  // namespace

const core::KernelErEngine& CachedWorkload::kernel_engine(
    std::size_t runs, core::KernelMode mode) const {
  const std::lock_guard<std::mutex> lock(kernel_mu_);
  auto& slot = kernels_[{runs, mode}];
  if (!slot) {
    Rng rng(workload.seed * 101);
    slot = std::make_unique<core::KernelErEngine>(
        core::KernelErEngine::monte_carlo(*workload.system, *workload.failures,
                                          runs, rng));
    slot->set_kernel_mode(mode);
  }
  return *slot;
}

double total_cost(const exp::Workload& w) {
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return w.costs.subset_cost(*w.system, all);
}

core::Selection run_algorithm(const CachedWorkload& cw,
                              const std::string& algorithm,
                              const std::string& optimizer, double budget,
                              core::KernelMode kernel) {
  const exp::Workload& w = cw.workload;
  const core::ErEngine* engine = nullptr;
  std::unique_ptr<core::ErEngine> owned;
  if (algorithm == "prob-rome") {
    engine = &cw.prob_bound;
  } else if (algorithm == "monte-rome") {
    Rng rng(w.seed * 101);
    owned = std::make_unique<core::MonteCarloEr>(*w.system, *w.failures, 50,
                                                 rng);
    engine = owned.get();
  } else if (algorithm == "kernel-rome") {
    // Same mixture and seeding as monte-rome, scored by the cached
    // bit-packed engine and shared across requests.  Its evaluate() is
    // bitwise MonteCarloEr's, but its gains agree only within 1e-9 (it sums
    // merged scenario-class weights), so near-tied greedy steps can break
    // differently: on 85 of 600 sampled workloads the two chose different
    // paths.
    engine = &cw.kernel_engine(50, kernel);
  } else if (algorithm == "select-path") {
    if (optimizer != "rome") {
      throw std::invalid_argument(
          "optimizer does not apply to select-path: it does not run "
          "through the Selector registry");
    }
    Rng rng(w.seed * 103);
    return core::select_path_budgeted(*w.system, w.costs, budget, rng);
  } else if (algorithm == "mat-rome") {
    if (optimizer != "rome") {
      throw std::invalid_argument(
          "optimizer does not apply to mat-rome: it does not run through "
          "the Selector registry");
    }
    return core::matrome(*w.system, *w.failures);
  } else {
    throw std::invalid_argument(
        "unknown algorithm (want prob-rome, monte-rome, kernel-rome, "
        "select-path or mat-rome): " +
        algorithm);
  }
  core::SelectorOptions options;
  options.seed = w.seed;
  if (optimizer == "branch-and-bound") {
    // The cached ProbBound tables double as the admissible pruning bound.
    options.bound_engine = &cw.prob_bound;
  }
  return core::make_selector(optimizer, options)
      ->select(*w.system, w.costs, budget, *engine);
}

std::string WorkloadKey::describe() const {
  std::ostringstream out;
  if (topology.empty()) {
    out << "custom(" << nodes << "n," << links << "l)";
  } else {
    out << topology;
  }
  out << "/paths=" << candidate_paths << "/seed=" << seed
      << "/intensity=" << intensity;
  if (unit_costs) out << "/unit-costs";
  return out.str();
}

WorkloadCache::WorkloadCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const CachedWorkload> WorkloadCache::get(
    const WorkloadKey& key) {
  std::promise<std::shared_ptr<const CachedWorkload>> promise;
  EntryFuture future;
  bool build = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      future = it->second.future;
    } else {
      ++misses_;
      build = true;
      future = promise.get_future().share();
      lru_.push_front(key);
      entries_[key] = Entry{future, lru_.begin()};
      evict_over_capacity();
    }
  }

  if (build) {
    try {
      promise.set_value(
          std::make_shared<const CachedWorkload>(build_workload(key)));
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Forget the failed entry so a later request can retry.
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        lru_.erase(it->second.lru_pos);
        entries_.erase(it);
      }
    }
  }
  return future.get();  // Rethrows a build failure to every waiter.
}

void WorkloadCache::evict_over_capacity() {
  auto victim = lru_.end();
  while (entries_.size() > capacity_ && victim != lru_.begin()) {
    --victim;
    const auto it = entries_.find(*victim);
    // Skip entries still being built; their waiters hold the future.
    if (it == entries_.end() ||
        it->second.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      continue;
    }
    entries_.erase(it);
    victim = lru_.erase(victim);
    ++evictions_;
  }
}

WorkloadCache::Counters WorkloadCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c;
  c.hits = hits_;
  c.misses = misses_;
  c.evictions = evictions_;
  c.size = entries_.size();
  return c;
}

}  // namespace rnt::service
