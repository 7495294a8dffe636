#include "cluster/coordinator.h"

#include <unistd.h>

#include <chrono>
#include <exception>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/gain_memo.h"
#include "service/protocol.h"

namespace rnt::cluster {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string join_csv(const std::vector<std::size_t>& values) {
  std::string csv;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(values[i]);
  }
  return csv;
}

std::vector<std::size_t> parse_csv(const std::string& csv) {
  std::vector<std::size_t> values;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    std::size_t used = 0;
    const unsigned long long value = std::stoull(token, &used);
    if (used != token.size()) {
      throw std::runtime_error("cluster: bad integer in worker reply: " +
                               token);
    }
    values.push_back(static_cast<std::size_t>(value));
  }
  return values;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cluster-backed ErEngine + accumulator (file-local; reached via select()).
// ---------------------------------------------------------------------------

/// ErAccumulator that drives one distributed sweep: each gain()/add()
/// round-trips one shard-sweep fan-out and merges the returned per-scenario
/// independence bits into the exact float accumulation order of the
/// single-node KernelAccumulator (global class order, value_ += weight per
/// accepted class — never a pre-summed partial).
class ClusterAccumulator : public core::ErAccumulator {
 public:
  explicit ClusterAccumulator(Coordinator& coord)
      : coord_(coord),
        classes_(coord.engine().scenario_classes()),
        memo_(coord.workload().workload.system->path_count()),
        sweep_(Coordinator::next_sweep_id()),
        inited_(coord.slices().size()) {
    // Locate each class's representative scenario inside its slice: the
    // merge reads exactly one bit per class, from the one shard reply
    // whose slice contains that scenario.
    const std::vector<Slice>& slices = coord_.slices();
    where_.reserve(classes_.count());
    for (std::size_t c = 0; c < classes_.count(); ++c) {
      const std::size_t rep = classes_.representative[c];
      std::size_t s = 0;
      while (s < slices.size() &&
             (slices[s].empty() || rep >= slices[s].end)) {
        ++s;
      }
      if (s == slices.size() || rep < slices[s].begin) {
        throw std::logic_error("cluster: representative scenario not covered");
      }
      const std::size_t offset = rep - slices[s].begin;
      where_.push_back(BitAddress{s, offset / 64, offset % 64});
    }
  }

  ~ClusterAccumulator() override {
    // Best-effort session teardown on every worker that ever held one.
    for (std::size_t s = 0; s < inited_.size(); ++s) {
      for (std::size_t owner : inited_[s]) {
        try {
          service::Request r;
          r.type = service::RequestType::kShardSweep;
          r.params["sweep"] = sweep_;
          r.params["op"] = "end";
          r.params["begin"] = std::to_string(coord_.slices()[s].begin);
          r.params["end"] = std::to_string(coord_.slices()[s].end);
          coord_.client_.call(owner, r);
        } catch (const std::exception&) {
          // The worker may be dead; sessions also die with the process.
        }
      }
    }
  }

  double gain(std::size_t path) const override {
    return memo_.get(path, [&] {
      const auto bits = sweep_round("probe", path);
      // Same association tree as KernelAccumulator::gain: g starts at 0
      // and accumulates class weights in global class order.
      double g = 0.0;
      for (std::size_t c = 0; c < classes_.count(); ++c) {
        if (bit_set(bits, c)) g += classes_.weights[c];
      }
      return g;
    });
  }

  void add(std::size_t path) override {
    const auto bits = sweep_round("add", path);
    // KernelAccumulator::add does value_ += weight per accepted class,
    // directly — summing into a local first would change the float
    // association tree and break bitwise identity.
    for (std::size_t c = 0; c < classes_.count(); ++c) {
      if (bit_set(bits, c)) value_ += classes_.weights[c];
    }
    committed_.push_back(path);
    memo_.invalidate();
  }

  double value() const override { return value_; }
  std::size_t gain_computations() const override {
    return memo_.computations();
  }

 private:
  struct BitAddress {
    std::size_t slice = 0;
    std::size_t word = 0;
    std::size_t bit = 0;
  };

  bool bit_set(const std::vector<std::vector<std::uint64_t>>& bits,
               std::size_t c) const {
    const BitAddress& a = where_[c];
    return ((bits[a.slice][a.word] >> a.bit) & 1U) != 0;
  }

  /// One probe/add fan-out; returns decoded bit words per slice index.
  std::vector<std::vector<std::uint64_t>> sweep_round(
      const std::string& op, std::size_t path) const {
    const Clock::time_point start = Clock::now();
    bool ok = false;
    try {
      const std::vector<service::Response> replies = coord_.fan_out(
          [&](const Slice& slice) {
            // probe/add address an existing session; only init (in
            // ensure_init) carries the workload key.
            service::Request r;
            r.type = service::RequestType::kShardSweep;
            r.params["sweep"] = sweep_;
            r.params["op"] = op;
            r.params["path"] = std::to_string(path);
            r.params["begin"] = std::to_string(slice.begin);
            r.params["end"] = std::to_string(slice.end);
            return r;
          },
          [&](std::size_t owner, std::size_t slice_index) {
            ensure_init(owner, slice_index);
          });
      const std::vector<Slice>& slices = coord_.slices();
      std::vector<std::vector<std::uint64_t>> bits(slices.size());
      for (std::size_t s = 0; s < slices.size(); ++s) {
        if (slices[s].empty()) continue;
        bits[s] = service::decode_bits(replies[s].at("bits"));
        if (bits[s].size() != (slices[s].size() + 63) / 64) {
          throw std::runtime_error("cluster: shard reply bit count mismatch");
        }
      }
      ok = true;
      coord_.metrics_.record(service::RequestType::kShardSweep, ok,
                             seconds_since(start));
      return bits;
    } catch (...) {
      coord_.metrics_.record(service::RequestType::kShardSweep, false,
                             seconds_since(start));
      throw;
    }
  }

  /// Creates this sweep's session for a slice on `owner` if that worker
  /// has not seen it yet, replaying the committed selection so an
  /// inheritor after failover reconstructs the exact basis state.
  void ensure_init(std::size_t owner, std::size_t slice_index) const {
    if (inited_[slice_index].contains(owner)) return;
    const Slice& slice = coord_.slices()[slice_index];
    service::Request r =
        coord_.base_request(service::RequestType::kShardSweep);
    r.params["sweep"] = sweep_;
    r.params["op"] = "init";
    r.params["begin"] = std::to_string(slice.begin);
    r.params["end"] = std::to_string(slice.end);
    if (!committed_.empty()) r.params["committed"] = join_csv(committed_);
    const service::Response reply = coord_.client_.call(owner, r);
    if (!reply.ok) {
      throw std::runtime_error("cluster: sweep init failed on worker " +
                               std::to_string(owner) + ": " + reply.error);
    }
    inited_[slice_index].insert(owner);
  }

  Coordinator& coord_;
  const core::ScenarioClasses& classes_;
  core::GainMemo memo_;
  const std::string sweep_;
  std::vector<BitAddress> where_;  ///< Per class: where its bit lives.
  /// Workers holding a live session per slice.  Fan-out threads touch
  /// disjoint slice indices, and rounds are sequential, so no lock.
  mutable std::vector<std::set<std::size_t>> inited_;
  std::vector<std::size_t> committed_;
  double value_ = 0.0;
};

/// The ErEngine facade rome() drives; evaluate() and the accumulator both
/// delegate to the coordinator.
class ClusterEngine : public core::ErEngine {
 public:
  explicit ClusterEngine(Coordinator& coord) : coord_(coord) {}

  double evaluate(const std::vector<std::size_t>& subset) const override {
    return coord_.evaluate(subset);
  }
  std::unique_ptr<core::ErAccumulator> make_accumulator() const override {
    return std::make_unique<ClusterAccumulator>(coord_);
  }
  std::string name() const override {
    return "Cluster-" + coord_.engine().name();
  }

 private:
  Coordinator& coord_;
};

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

Coordinator::Coordinator(const service::WorkloadKey& key,
                         std::vector<WorkerEndpoint> workers,
                         CoordinatorConfig config)
    : key_(key),
      config_(config),
      workload_(cache_.get(key)),
      client_(std::move(workers), config.rpc) {
  std::vector<double> weights;
  weights.reserve(client_.size());
  for (std::size_t w = 0; w < client_.size(); ++w) {
    weights.push_back(client_.endpoint(w).weight);
  }
  slices_ = plan_slices(engine().scenario_count(), weights);
  owners_.resize(slices_.size());
  for (std::size_t i = 0; i < owners_.size(); ++i) owners_[i] = i;
}

Coordinator::~Coordinator() { stop_heartbeats(); }

const core::KernelErEngine& Coordinator::engine() const {
  return workload_->kernel_engine(config_.runs);
}

std::vector<service::Response> Coordinator::hello() {
  std::vector<service::Response> replies(client_.size());
  for (std::size_t w = 0; w < client_.size(); ++w) {
    const Clock::time_point start = Clock::now();
    try {
      service::Request r;
      r.type = service::RequestType::kWorkerHello;
      r.params["client"] = "coordinator";
      replies[w] = client_.call(w, r);
      metrics_.record(service::RequestType::kWorkerHello, replies[w].ok,
                      seconds_since(start));
    } catch (const TransportError& e) {
      metrics_.record(service::RequestType::kWorkerHello, false,
                      seconds_since(start));
      note_worker_down(w);
      replies[w] = service::Response::failure(e.what());
    }
  }
  if (client_.alive_count() == 0) {
    throw std::runtime_error("cluster: no worker reachable");
  }
  return replies;
}

double Coordinator::evaluate(const std::vector<std::size_t>& subset) {
  if (subset.empty()) {
    // ER(empty) needs no network; the local twin answers identically.
    return engine().evaluate(subset);
  }
  const Clock::time_point start = Clock::now();
  try {
    const std::string subset_csv = join_csv(subset);
    const std::vector<service::Response> replies =
        fan_out([&](const Slice& slice) {
          service::Request r = base_request(service::RequestType::kShardEval);
          r.params["subset"] = subset_csv;
          r.params["begin"] = std::to_string(slice.begin);
          r.params["end"] = std::to_string(slice.end);
          return r;
        });
    // Paste integer shard ranks into scenario order, then reduce with the
    // engine's own fixed chunked summation tree — bitwise the single-node
    // result, independent of the sharding.
    std::vector<std::size_t> table(engine().scenario_count(), 0);
    for (std::size_t s = 0; s < slices_.size(); ++s) {
      if (slices_[s].empty()) continue;
      const std::vector<std::size_t> ranks =
          parse_csv(replies[s].at("ranks"));
      if (ranks.size() != slices_[s].size()) {
        throw std::runtime_error("cluster: shard rank count mismatch");
      }
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        table[slices_[s].begin + i] = ranks[i];
      }
    }
    const double value = engine().reduce_ranks(table);
    metrics_.record(service::RequestType::kShardEval, true,
                    seconds_since(start));
    return value;
  } catch (...) {
    metrics_.record(service::RequestType::kShardEval, false,
                    seconds_since(start));
    throw;
  }
}

core::Selection Coordinator::select(double budget,
                                    core::SelectorStats* stats) {
  const ClusterEngine cluster_engine(*this);
  const exp::Workload& w = workload_->workload;
  return core::rome(*w.system, w.costs, budget, cluster_engine, stats);
}

std::size_t Coordinator::failovers() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return failovers_;
}

std::size_t Coordinator::owner_of(std::size_t slice) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (owners_.empty()) {
    throw std::runtime_error("cluster: no alive workers left");
  }
  return owners_.at(slice);
}

std::vector<service::Response> Coordinator::fan_out(
    const std::function<service::Request(const Slice&)>& make_request,
    const std::function<void(std::size_t, std::size_t)>& ensure) {
  // Test hook first, so a scripted fault lands before any slice runs.
  std::function<void(std::size_t)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = fault_hook_;
  }
  const std::size_t op = op_index_.fetch_add(1);
  if (hook) hook(op);

  std::vector<service::Response> replies(slices_.size());
  std::vector<std::exception_ptr> errors(slices_.size());
  std::vector<std::thread> threads;
  threads.reserve(slices_.size());
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    if (slices_[s].empty()) continue;
    threads.emplace_back([this, s, &make_request, &ensure, &replies,
                          &errors] {
      try {
        replies[s] = robust_slice_call(s, make_request, ensure);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    if (errors[s]) std::rethrow_exception(errors[s]);
  }
  return replies;
}

service::Response Coordinator::robust_slice_call(
    std::size_t slice_index,
    const std::function<service::Request(const Slice&)>& make_request,
    const std::function<void(std::size_t, std::size_t)>& ensure) {
  const Slice& slice = slices_[slice_index];
  while (true) {
    const std::size_t owner = owner_of(slice_index);
    try {
      if (ensure) ensure(owner, slice_index);
      service::Response reply = client_.call(owner, make_request(slice));
      if (!reply.ok) {
        // An application error is deterministic — every survivor would
        // answer the same — so it propagates instead of failing over.
        throw std::runtime_error("cluster: worker " + std::to_string(owner) +
                                 " error: " + reply.error);
      }
      return reply;
    } catch (const TransportError&) {
      note_worker_down(owner);
      // Loop: owner_of picks the survivor now owning this slice, or
      // throws once nobody is left.
    }
  }
}

void Coordinator::note_worker_down(std::size_t worker) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!client_.alive(worker)) return;  // Another thread got here first.
  client_.mark_dead(worker);
  std::vector<bool> alive(client_.size());
  bool any = false;
  for (std::size_t w = 0; w < client_.size(); ++w) {
    alive[w] = client_.alive(w);
    any = any || alive[w];
  }
  if (!any) {
    owners_.clear();  // owner_of now reports the cluster as lost.
    return;
  }
  const std::vector<std::size_t> next = assign_owners(slices_.size(), alive);
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    if (!slices_[s].empty() && !owners_.empty() && next[s] != owners_[s]) {
      ++failovers_;
    }
  }
  owners_ = next;
}

service::Request Coordinator::base_request(service::RequestType type) const {
  service::Request r;
  r.type = type;
  if (!key_.topology.empty()) r.params["as"] = key_.topology;
  r.params["nodes"] = std::to_string(key_.nodes);
  r.params["links"] = std::to_string(key_.links);
  r.params["paths"] = std::to_string(key_.candidate_paths);
  r.params["seed"] = std::to_string(key_.seed);
  r.params["intensity"] = service::format_double(key_.intensity);
  if (key_.unit_costs) r.params["unit-costs"] = "1";
  if (type == service::RequestType::kShardEval ||
      type == service::RequestType::kShardSweep) {
    r.params["runs"] = std::to_string(config_.runs);
  }
  return r;
}

std::string Coordinator::next_sweep_id() {
  // Process-global counter: several coordinators in one test process must
  // not collide on a shared worker's session map.
  static std::atomic<std::uint64_t> counter{0};
  return "swp-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

void Coordinator::set_fault_hook(std::function<void(std::size_t)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  fault_hook_ = std::move(hook);
}

void Coordinator::start_heartbeats() {
  if (config_.heartbeat_interval_s <= 0.0 || hb_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = false;
  }
  hb_thread_ = std::thread([this] { heartbeat_loop(); });
}

void Coordinator::stop_heartbeats() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (hb_thread_.joinable()) hb_thread_.join();
}

void Coordinator::heartbeat_loop() {
  std::vector<std::size_t> misses(client_.size(), 0);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(
          lock,
          std::chrono::duration<double>(config_.heartbeat_interval_s),
          [this] { return hb_stop_; });
      if (hb_stop_) return;
    }
    for (std::size_t w = 0; w < client_.size(); ++w) {
      if (!client_.alive(w)) continue;
      if (client_.heartbeat(w, config_.heartbeat_deadline_s)) {
        misses[w] = 0;
      } else if (++misses[w] >= config_.heartbeat_misses) {
        note_worker_down(w);
      }
    }
  }
}

}  // namespace rnt::cluster
