// Service benchmark driver.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--expected DIR] [--out DIR]
//   perfbench --write-expected DIR [--workload W]
//   perfbench --script-digest --workload W --seed N --seconds S
//
// --trace 0 (end-to-end run): starts an in-process service::ReactorServer
// on loopback with a 2-worker pool, sets it up 5 times (server start,
// resident workload builds, untimed warm-up pass; setup_s is the median),
// then replays the timed script block by block, closed-loop from one
// client thread over two connections, and checks every reply.
//
// --trace 1 (traced run): replays the same script (a) through a fresh
// server, for round trips and the server-side handle time, (b) by direct
// layer calls without tracing and (c) by direct layer calls with spans;
// (c) must reproduce (a)'s replies.  Prints the per-layer metrics and
// writes the trace summary and the spans under --out.
//
// The last stdout line is the run's result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
#include <pthread.h>
#include <sched.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "probe.h"
#include "replay.h"
#include "script.h"
#include "service/reactor_server.h"
#include "service/service.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string expected_dir = "perfbench/expected";
  std::string out_dir = ".bench_out";
  std::string write_expected;
  bool script_digest = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = std::stoi(value());
    else if (flag == "--expected") a.expected_dir = value();
    else if (flag == "--out") a.out_dir = value();
    else if (flag == "--write-expected") a.write_expected = value();
    else if (flag == "--script-digest") a.script_digest = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.seconds <= 0 || a.seconds > 600) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Expected replies.

using Expected = std::map<std::string, std::string>;

Expected load_expected(const std::string& dir, const std::string& workload) {
  const std::string path = dir + "/" + workload + ".tsv";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected table " + path);
  Expected table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, digest;
    fields >> key >> digest;
    table[key] = digest;
  }
  if (table.empty()) throw std::runtime_error("empty expected table " + path);
  return table;
}

/// True when `reply` is ok and matches the op's expectation.
bool reply_ok(const Op& op, std::string_view reply, const Expected& exp) {
  if (reply.substr(0, 2) != "ok") return false;
  if (op.check == Check::kFields) {
    for (const std::string& f : *op.fields) {
      if (field_of(reply, f).empty()) return false;
    }
    return true;
  }
  const auto it = exp.find(expected_key(op));
  return it != exp.end() && it->second == hex16(fnv1a(reply));
}

/// CPU seconds used by the whole process (all threads) so far.
double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// What the client keeps of a timed phase: latency and reply digest per
/// op, for replies checked field by field whether they passed, and each
/// block's wall and process CPU time.  Sized before the phase, so the
/// phase itself allocates nothing per op.
struct TimedReplies {
  explicit TimedReplies(const Script& sc)
      : latency_ms(sc.timed.size()),
        digest(sc.timed.size()),
        fields_ok(sc.timed.size()) {
    block_wall_s.reserve(sc.block_end.size());
    block_cpu_s.reserve(sc.block_end.size());
  }
  double wall_s = 0.0;  ///< Sum over blocks.
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> digest;
  std::vector<char> fields_ok;
  std::vector<double> block_wall_s;
  std::vector<double> block_cpu_s;
};

/// Runs the timed ops block by block (see Script::block_end).
void run_timed(LoadClient& client, const Script& sc,
               const std::vector<WireOp>& ops, const Expected& exp,
               TimedReplies& t) {
  const LoadClient::OnReply on_reply = [&](std::size_t i,
                                           std::string_view reply,
                                           double ms) {
    t.latency_ms[i] = ms;
    t.digest[i] = fnv1a(reply);
    if (sc.timed[i].check == Check::kFields) {
      t.fields_ok[i] = reply_ok(sc.timed[i], reply, exp);
    }
  };
  std::size_t first = 0;
  for (const std::size_t end : sc.block_end) {
    const double cpu0 = process_cpu_seconds();
    const double wall = client.run(ops, first, end, on_reply);
    t.block_cpu_s.push_back(process_cpu_seconds() - cpu0);
    t.block_wall_s.push_back(wall);
    t.wall_s += wall;
    first = end;
  }
}

/// Checks a timed phase's replies (reply_ok() on the kept digests).
std::size_t count_timed_failures(const Script& sc, const TimedReplies& t,
                                 const Expected& exp) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < sc.timed.size(); ++i) {
    const Op& op = sc.timed[i];
    bool ok = false;
    if (op.check == Check::kFields) {
      ok = t.fields_ok[i] != 0;
    } else {
      const auto it = exp.find(expected_key(op));
      ok = it != exp.end() && it->second == hex16(t.digest[i]);
    }
    if (!ok) {
      if (failed < 5) {
        std::cerr << "perfbench: reply mismatch for '"
                  << op.line.substr(0, 120) << "'\n";
      }
      ++failed;
    }
  }
  return failed;
}

/// Request lines ready to send: views of the script's lines, or of the
/// substituted copies kept here.
struct Resolved {
  std::vector<WireOp> ops;
  std::deque<std::string> storage;
};

/// Appends the resolved `ops` to `r`.
void resolve_ops(const std::vector<const Op*>& ops,
                 const std::vector<std::string>& warm_replies, Resolved& r) {
  for (const Op* op : ops) {
    std::string_view line = op->line;
    if (line.find('@') != std::string_view::npos) {
      line = r.storage.emplace_back(resolve(op->line, warm_replies));
    }
    r.ops.push_back(WireOp{line, op->conn});
  }
}

/// Warm-up runs in two waves: ops without references, then the ops that
/// reference their replies (references only ever point to wave one).
template <typename Send>
std::vector<std::string> run_warmup(const Script& sc, Send send) {
  std::vector<std::string> replies(sc.warmup.size());
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::size_t> index;
    std::vector<const Op*> ops;
    for (std::size_t i = 0; i < sc.warmup.size(); ++i) {
      const Op& op = sc.warmup[i];
      if ((op.line.find('@') != std::string::npos) != (wave == 1)) continue;
      index.push_back(i);
      ops.push_back(&op);
    }
    if (ops.empty()) continue;
    Resolved resolved;
    resolve_ops(ops, replies, resolved);
    const std::vector<std::string> got = send(resolved.ops);
    for (std::size_t k = 0; k < index.size(); ++k) replies[index[k]] = got[k];
  }
  return replies;
}

void resolve_timed(const Script& sc, const std::vector<std::string>& warm,
                   Resolved& r) {
  std::vector<const Op*> ops;
  ops.reserve(sc.timed.size());
  for (const Op& op : sc.timed) ops.push_back(&op);
  resolve_ops(ops, warm, r);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string probe_json(const ProbeReading& before, const ProbeReading& after) {
  return "{\"before\":{\"alu_ms\":" + num(before.alu_ms) +
         ",\"chase_ms\":" + num(before.chase_ms) +
         "},\"after\":{\"alu_ms\":" + num(after.alu_ms) +
         ",\"chase_ms\":" + num(after.chase_ms) + "}}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           num(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) std::cerr << "perfbench: could not write " << path << "\n";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << metrics_json(metrics) << "}" << std::endl;
}

// ---------------------------------------------------------------------------
// Server harness.

service::ReactorServerConfig server_config() {
  service::ReactorServerConfig cfg;
  cfg.port = 0;
  cfg.threads = 2;
  cfg.request_timeout_s = 170.0;
  return cfg;
}

/// The first four CPUs this process may run on (empty when it may use
/// fewer), read once before any pinning narrows the mask.
const std::vector<int>& role_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return out;
    for (int cpu = 0; cpu < CPU_SETSIZE && out.size() < 4; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
    if (out.size() < 4) out.clear();
    return out;
  }();
  return cpus;
}

/// Restricts the calling thread (and the threads it creates from now on)
/// to the given CPUs.
void pin_to(std::initializer_list<int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

/// A ReactorServer running on its own loop thread plus a connected client.
///
/// With at least 4 CPUs each role gets its own (see role_cpus()): the
/// pool's two workers share the second and third, the reactor loop runs on
/// the fourth and the client (the calling thread) on the first, the way a
/// remote caller never competes with the server.  Placement is then the
/// same in every run instead of whatever the scheduler picks, which
/// otherwise moves wake-up latency from run to run.
class Harness {
 public:
  Harness() {
    const std::vector<int>& cpu = role_cpus();
    const bool pin = !cpu.empty();
    if (pin) pin_to({cpu[1], cpu[2]});  // Inherited by the pool's workers.
    server_ = std::make_unique<service::ReactorServer>(server_config());
    if (pin) pin_to({cpu[3]});  // Inherited by the loop thread.
    loop_ = std::thread([this] { server_->run(); });
    try {
      if (pin) pin_to({cpu[0]});
      client_ = std::make_unique<LoadClient>(server_->port());
    } catch (...) {
      server_->stop();
      loop_.join();
      throw;
    }
  }

  ~Harness() {
    client_.reset();
    server_->stop();
    loop_.join();
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  LoadClient& client() { return *client_; }
  service::Service& service() { return server_->service(); }

 private:
  std::unique_ptr<service::ReactorServer> server_;
  std::thread loop_;
  std::unique_ptr<LoadClient> client_;
};

struct WarmedHarness {
  std::unique_ptr<Harness> harness;
  std::vector<std::string> warm_replies;
  double setup_s = 0.0;
};

WarmedHarness set_up(const Script& sc) {
  WarmedHarness w;
  const Clock::time_point t0 = Clock::now();
  w.harness = std::make_unique<Harness>();
  w.warm_replies = run_warmup(sc, [&](const std::vector<WireOp>& ops) {
    std::vector<std::string> replies(ops.size());
    w.harness->client().run(
        ops, 0, ops.size(),
        [&](std::size_t i, std::string_view reply, double) {
          replies[i] = reply;
        });
    return replies;
  });
  w.setup_s = seconds_since(t0);
  return w;
}

std::size_t count_warm_failures(const Script& sc,
                                const std::vector<std::string>& replies,
                                const Expected& exp) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < sc.warmup.size(); ++i) {
    if (!reply_ok(sc.warmup[i], replies[i], exp)) {
      std::cerr << "perfbench: warm-up reply mismatch for '"
                << sc.warmup[i].line.substr(0, 120) << "': "
                << replies[i].substr(0, 200) << "\n";
      ++bad;
    }
  }
  return bad;
}

/// Ticks the hypervisor stole from this guest's CPUs so far (the `steal`
/// column of /proc/stat; 0 where it is not available).  Informational.
double steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return in ? v[7] : 0.0;
}

/// Share of the guest's CPU time the hypervisor stole between two
/// steal_ticks() readings `wall_s` apart.
double steal_share(double ticks, double wall_s) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return ticks / (wall_s * double(::sysconf(_SC_CLK_TCK)) * cpus);
}

/// A `/proc/self/status` field in MB, or -1 where it is unavailable.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // In kB.
    }
  }
  return -1.0;
}

/// Returns freed heap to the system and restarts the peak-RSS count at
/// the current resident set, which it returns (MB, 0 where /proc is
/// unavailable; the peak is then the process's).
double reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return std::max(0.0, status_mb("VmRSS:"));
}

/// Peak resident set since the last reset_peak_rss() (VmHWM) minus
/// `baseline_mb`.
double peak_rss_mb(double baseline_mb) {
  double peak = status_mb("VmHWM:");
  if (peak < 0) {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    peak = double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
  }
  return peak - baseline_mb;
}

// ---------------------------------------------------------------------------
// End-to-end run.

/// Set-ups per run; setup_s is their median and the last one is timed.
constexpr std::size_t kSetups = 5;

int run_e2e(const Args& args, const Script& sc, const Expected& exp) {
  const ProbeReading before = host_probe();
  std::vector<double> setups;
  std::size_t warm_bad = 0;
  WarmedHarness live;
  // peak_rss_mb is the peak over the last set-up and the timed phase
  // minus the resident set before any server existed, when the script and
  // the timed phase's buffers are already allocated: the server's memory,
  // not the driver's.  The request lines are resolved from the first
  // set-up's warm-up replies, which every set-up reproduces (they are
  // checked).
  Resolved resolved;
  resolved.ops.reserve(sc.timed.size());
  TimedReplies res(sc);
  const double rss_baseline_mb = reset_peak_rss();
  for (std::size_t s = 0; s < kSetups; ++s) {
    live = WarmedHarness{};  // Stops the previous server first.
    reset_peak_rss();
    live = set_up(sc);
    setups.push_back(live.setup_s);
    warm_bad += count_warm_failures(sc, live.warm_replies, exp);
    if (s == 0) resolve_timed(sc, live.warm_replies, resolved);
  }

  const double steal0 = steal_ticks();
  run_timed(live.harness->client(), sc, resolved.ops, exp, res);
  const double steal = steal_share(steal_ticks() - steal0, res.wall_s);
  const double rss_mb = peak_rss_mb(rss_baseline_mb);
  const std::size_t failed = count_timed_failures(sc, res, exp);
  live.harness.reset();
  const ProbeReading after = host_probe();

  // Throughput and CPU per op are taken per block and reported as the
  // median over the run's blocks; the latency percentiles are over every
  // request of the run.
  std::vector<double> rate, cpu_ms;
  std::size_t first = 0;
  for (std::size_t b = 0; b < sc.block_end.size(); ++b) {
    const double ops = double(sc.block_end[b] - first);
    rate.push_back(ops / res.block_wall_s[b]);
    cpu_ms.push_back(res.block_cpu_s[b] * 1000.0 / ops);
    first = sc.block_end[b];
  }
  const double n = double(sc.timed.size());
  const std::vector<Metric> metrics = {
      {"ops_per_s", quantile(rate, 0.5), "op/s"},
      {"op_p50_ms", quantile(res.latency_ms, 0.5), "ms"},
      {"op_p90_ms", quantile(res.latency_ms, 0.9), "ms"},
      {"ok_fraction", (n - double(failed)) / n, "ratio"},
      {"setup_s", quantile(setups, 0.5), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"cpu_ms_per_op", quantile(cpu_ms, 0.5), "ms"},
  };
  const std::string info =
      "{\"workload\":\"" + sc.workload + "\",\"seed\":" +
      std::to_string(args.seed) + ",\"ops\":" +
      std::to_string(sc.timed.size()) + ",\"blocks\":" +
      std::to_string(sc.block_end.size()) + ",\"timed_wall_s\":" +
      num(res.wall_s) + ",\"run_ops_per_s\":" + num(n / res.wall_s) + ",\"max_latency_ms\":" +
      num(*std::max_element(res.latency_ms.begin(), res.latency_ms.end())) +
      ",\"ops_over_10ms\":" +
      std::to_string(std::count_if(res.latency_ms.begin(),
                                   res.latency_ms.end(),
                                   [](double v) { return v > 10.0; })) +
      ",\"rss_baseline_mb\":" + num(rss_baseline_mb) +
      ",\"steal_share\":" + num(steal) +
      ",\"probe\":" + probe_json(before, after) + "}";
  std::cout << "# run " << info << std::endl;
  print_result(failed == 0 && warm_bad == 0, sc.timed.size(), failed,
               metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run.

/// Block by block, a round-robin merge of the two connections' op
/// sequences: the order the direct replays execute the timed script in
/// (each connection's own order, and so every session's order, is
/// preserved).
std::vector<std::size_t> replay_order(const Script& sc) {
  std::vector<std::size_t> order;
  std::size_t first = 0;
  for (const std::size_t end : sc.block_end) {
    std::vector<std::size_t> per_conn[2];
    for (std::size_t i = first; i < end; ++i) {
      per_conn[sc.timed[i].conn == 0 ? 0 : 1].push_back(i);
    }
    for (std::size_t k = 0; k < std::max(per_conn[0].size(),
                                         per_conn[1].size());
         ++k) {
      for (const auto& list : per_conn) {
        if (k < list.size()) order.push_back(list[k]);
      }
    }
    first = end;
  }
  return order;
}

struct DirectRun {
  std::vector<std::uint64_t> digest;  ///< Reply digest per timed op.
  std::vector<bool> replayed;         ///< Whether the op was replayed.
  double timed_wall_s = 0.0;
  double prefix_wall_s = 0.0;  ///< The first `prefix` ops of the order.
  Counts warm_counts;
  Counts end_counts;
  std::uint64_t memo_entries = 0;
};

/// Replays the warm-up, then the timed ops in replay_order() — only the
/// first `limit` of them when `limit` is smaller than the script.
DirectRun direct_replay(const Script& sc, Tracer* tracer, std::size_t prefix,
                        std::size_t limit) {
  Replayer replayer(tracer);
  DirectRun run;
  const std::vector<std::string> warm =
      run_warmup(sc, [&](const std::vector<WireOp>& ops) {
        std::vector<std::string> out;
        for (const WireOp& op : ops) {
          out.push_back(replayer.handle(std::string(op.line)));
        }
        return out;
      });
  run.warm_counts = replayer.counts();
  if (tracer) tracer->clear_leaves();
  Resolved resolved;
  resolve_timed(sc, warm, resolved);
  const std::vector<WireOp>& ops = resolved.ops;
  run.digest.resize(ops.size());
  run.replayed.resize(ops.size());
  const std::vector<std::size_t> order = replay_order(sc);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < std::min(limit, order.size()); ++k) {
    if (k == prefix) run.prefix_wall_s = seconds_since(t0);
    const std::size_t i = order[k];
    if (tracer) tracer->set_request(static_cast<std::uint32_t>(i));
    run.digest[i] = fnv1a(replayer.handle(std::string(ops[i].line)));
    run.replayed[i] = true;
  }
  run.timed_wall_s = seconds_since(t0);
  if (prefix >= std::min(limit, order.size())) {
    run.prefix_wall_s = run.timed_wall_s;
  }
  run.end_counts = replayer.counts();
  run.memo_entries = replayer.memo_entries();
  return run;
}

/// Per-name time aggregates of the timed part of a trace.
struct Aggregate {
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t calls = 0;
};

std::map<std::string, Aggregate> aggregate(const Tracer& tracer) {
  std::map<std::string, Aggregate> out;
  for (const Tracer::Record& r : tracer.records()) {
    if (r.request == Tracer::kNone) continue;
    Aggregate& a = out[r.name];
    a.total_ns += double(r.end_ns - r.start_ns);
    a.self_ns += double(r.end_ns - r.start_ns - r.child_ns);
    ++a.calls;
  }
  for (const auto& [name, leaf] : tracer.leaves()) {
    Aggregate& a = out[name];
    a.total_ns += double(leaf.ns);
    a.self_ns += double(leaf.ns);
    a.calls += leaf.calls;
  }
  return out;
}

/// Service::submit_line(...).get() minus Service::handle_line on `ping`.
double pool_hop_us() {
  // Same placement as the server's pool: workers off the caller's CPU.
  const std::vector<int>& cpu = role_cpus();
  if (!cpu.empty()) pin_to({cpu[1], cpu[2]});
  service::Service svc(service::ServiceConfig{.threads = 2});
  if (!cpu.empty()) pin_to({cpu[0]});
  constexpr int kCalls = 3000;
  double handle_s = 0.0, submit_s = 0.0;
  for (int i = 0; i < kCalls; ++i) {
    Clock::time_point t0 = Clock::now();
    svc.handle_line("ping");
    handle_s += seconds_since(t0);
    t0 = Clock::now();
    svc.submit_line(std::string("ping")).get();
    submit_s += seconds_since(t0);
  }
  return (submit_s - handle_s) * 1e6 / kCalls;
}

/// The module a span or leaf name belongs to ("core.kernel.build" ->
/// "core.kernel", "core.selectors" -> "core.selectors"); null for the
/// request root.
const char* module_of(const std::string& name) {
  static const char* const kModules[] = {
      "service", "exp", "graph", "tomo", "failures", "core.probbound",
      "core.kernel", "core.selectors", "online", "infer", "boolnt"};
  for (const char* m : kModules) {
    const std::string_view module = m;
    if (std::string_view(name).substr(0, module.size()) == module &&
        (name.size() == module.size() || name[module.size()] == '.')) {
      return m;
    }
  }
  return nullptr;
}

int run_trace(const Args& args, const Script& sc, const Expected& exp) {
  const ProbeReading before = host_probe();

  // (a) Server replay: round trips and server-side handle time.
  TimedReplies server(sc);
  double handle_ms_sum = 0.0;
  std::size_t handled = 0;
  service::WorkloadCache::Counters server_cache;
  std::size_t failed = 0;
  {
    WarmedHarness live = set_up(sc);
    failed += count_warm_failures(sc, live.warm_replies, exp);
    const auto m0 = live.harness->service().metrics();
    Resolved resolved;
    resolve_timed(sc, live.warm_replies, resolved);
    run_timed(live.harness->client(), sc, resolved.ops, exp, server);
    const auto m1 = live.harness->service().metrics();
    handled = m1.requests - m0.requests;
    handle_ms_sum = m1.latency_mean_ms * double(m1.requests) -
                    m0.latency_mean_ms * double(m0.requests);
    server_cache = live.harness->service().cache_counters();
  }
  failed += count_timed_failures(sc, server, exp);
  const std::vector<double>& rtt_ms = server.latency_ms;

  // (b) untraced direct replay of the first quarter of the timed ops,
  // the baseline for the tracing overhead; (c) traced direct replay.
  const std::size_t prefix = (sc.timed.size() + 3) / 4;
  const DirectRun plain = direct_replay(sc, nullptr, prefix, prefix);
  Tracer tracer;
  const DirectRun traced =
      direct_replay(sc, &tracer, prefix, sc.timed.size());
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < sc.timed.size(); ++i) {
    if (sc.timed[i].check != Check::kDigest) continue;
    if (traced.digest[i] != server.digest[i] ||
        (plain.replayed[i] && plain.digest[i] != server.digest[i])) {
      if (diverged < 5) {
        std::cerr << "perfbench: direct replay differs from the server on '"
                  << sc.timed[i].line.substr(0, 100) << "'\n";
      }
      ++diverged;
    }
  }
  const Counts& c0 = traced.warm_counts;
  const Counts& c1 = traced.end_counts;
  const bool cache_agrees = server_cache.hits == c1.cache_hits &&
                            server_cache.misses == c1.cache_misses &&
                            server_cache.evictions == c1.cache_evictions;
  if (!cache_agrees) {
    std::cerr << "perfbench: replay cache counters differ from the server's ("
              << server_cache.hits << "/" << server_cache.misses << "/"
              << server_cache.evictions << " vs " << c1.cache_hits << "/"
              << c1.cache_misses << "/" << c1.cache_evictions << ")\n";
  }

  // Attribution.
  // A primitive the workload never calls reads 0.
  const std::map<std::string, Aggregate> agg = aggregate(tracer);
  const auto mean_of = [&](const std::string& name, double scale,
                           bool self = false) {
    const auto it = agg.find(name);
    if (it == agg.end() || it->second.calls == 0) return 0.0;
    const Aggregate& a = it->second;
    return (self ? a.self_ns : a.total_ns) / double(a.calls) * scale;
  };
  constexpr double kUs = 1e-3, kMs = 1e-6;

  double rtt_sum_ms = 0.0;
  for (const double v : rtt_ms) rtt_sum_ms += v;
  const double n = double(sc.timed.size());
  const double rtt_us = rtt_sum_ms / n * 1e3;
  const double handle_us = handled ? handle_ms_sum / double(handled) * 1e3
                                   : 0.0;
  const double net_ns = std::max(0.0, (rtt_sum_ms - handle_ms_sum) * 1e6);

  double root_ns = 0.0, covered_ns = 0.0;
  std::size_t roots = 0, well_covered = 0;
  for (const Tracer::Record& r : tracer.records()) {
    if (r.request == Tracer::kNone || r.parent != Tracer::kNone) continue;
    const double dur = double(r.end_ns - r.start_ns);
    root_ns += dur;
    covered_ns += double(r.child_ns);
    ++roots;
    if (dur <= 0 || double(r.child_ns) >= 0.9 * dur) ++well_covered;
  }
  std::map<std::string, double> module_self = {{"net", net_ns}};
  for (const auto& [name, a] : agg) {
    if (const char* m = module_of(name)) module_self[m] += a.self_ns;
  }
  const double denominator = root_ns + net_ns;
  const auto share = [&](const std::string& m) {
    const auto it = module_self.find(m);
    return it == module_self.end() || denominator <= 0
               ? 0.0
               : it->second / denominator;
  };

  const double hits = double(c1.cache_hits - c0.cache_hits);
  const double misses = double(c1.cache_misses - c0.cache_misses);
  const double localize_calls =
      double(c1.localize_node_calls - c0.localize_node_calls);
  const double overhead =
      plain.prefix_wall_s > 0
          ? traced.prefix_wall_s / plain.prefix_wall_s - 1.0
          : 0.0;
  std::vector<Metric> metrics = {
      {"net.rtt_us", rtt_us, "us"},
      {"service.handle_us", handle_us, "us"},
      {"net.transport_us", rtt_us - handle_us, "us"},
      {"service.pool_hop_us", pool_hop_us(), "us"},
      {"service.protocol.parse_us", mean_of("service.protocol.parse", kUs),
       "us"},
      {"service.protocol.format_us", mean_of("service.protocol.format", kUs),
       "us"},
      {"service.stats_us", mean_of("service.stats", kUs), "us"},
      {"service.cache.hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"service.cache.hits", hits, "count"},
      {"service.cache.misses", misses, "count"},
      {"service.cache.evictions",
       double(c1.cache_evictions - c0.cache_evictions), "count"},
      {"service.cache.miss_ms", mean_of("service.cache.miss", kMs), "ms"},
      {"exp.workload.build_ms", mean_of("exp.workload.build", kMs), "ms"},
      {"graph.build_ms", mean_of("graph.build", kMs), "ms"},
      {"tomo.paths_ms", mean_of("tomo.paths", kMs), "ms"},
      {"failures.model_ms", mean_of("failures.model", kMs), "ms"},
      {"tomo.costs_ms", mean_of("tomo.costs", kMs), "ms"},
      {"core.probbound.build_ms", mean_of("core.probbound.build", kMs), "ms"},
      {"core.probbound.gain_us", mean_of("core.probbound.gain", kUs), "us"},
      {"core.kernel.build_ms", mean_of("core.kernel.build", kMs), "ms"},
      {"core.kernel.classes_ms", mean_of("core.kernel.classes", kMs), "ms"},
      {"core.kernel.classes", double(c1.kernel_classes), "count"},
      {"core.kernel.gain_cold_us", mean_of("core.kernel.gain_cold", kUs),
       "us"},
      {"core.kernel.gain_warm_us", mean_of("core.kernel.gain_warm", kUs),
       "us"},
      {"core.kernel.memo_entries", double(traced.memo_entries), "count"},
      {"core.selectors.self_ms", mean_of("core.selectors", kMs, true), "ms"},
      {"core.selectors.gain_evals", double(c1.gain_evals - c0.gain_evals),
       "count"},
      {"core.selectors.evaluate_calls",
       double(c1.evaluate_calls - c0.evaluate_calls), "count"},
      {"online.observe_us", mean_of("online.observe", kUs), "us"},
      {"online.replan_ms", mean_of("online.replan", kMs), "ms"},
      {"online.replan_reused", double(c1.replan_reused - c0.replan_reused),
       "count"},
      {"online.replan_gain_evals",
       double(c1.replan_gain_evals - c0.replan_gain_evals), "count"},
      {"infer.run_ms", mean_of("infer.run", kMs), "ms"},
      {"infer.cgls_iterations",
       double(c1.cgls_iterations - c0.cgls_iterations), "count"},
      {"boolnt.localize_ms", mean_of("boolnt.localize", kMs), "ms"},
      {"boolnt.mean_candidates",
       localize_calls > 0
           ? (c1.candidates_sum - c0.candidates_sum) / localize_calls
           : 0.0,
       "count"},
      {"tomo.localize_ms", mean_of("tomo.localize", kMs), "ms"},
      {"tomo.rank_of_us", mean_of("tomo.rank_of", kUs), "us"},
      {"exp.metrics.evaluate_ms", mean_of("exp.metrics.evaluate", kMs), "ms"},
      {"core.kernel.slice_ranks_us", mean_of("core.kernel.slice_ranks", kUs),
       "us"},
      {"core.kernel.shard_probe_us", mean_of("core.kernel.shard_probe", kUs),
       "us"},
      {"core.kernel.shard_add_us", mean_of("core.kernel.shard_add", kUs),
       "us"},
  };
  for (const char* m : {"net", "service", "exp", "graph", "tomo", "failures",
                        "core.probbound", "core.kernel", "core.selectors",
                        "online", "infer", "boolnt"}) {
    metrics.push_back({std::string("share.") + m, share(m), "ratio"});
  }
  metrics.push_back({"trace.coverage",
                     root_ns > 0 ? covered_ns / root_ns : 0.0, "ratio"});
  metrics.push_back({"trace.covered_requests",
                     roots ? double(well_covered) / double(roots) : 0.0,
                     "ratio"});
  metrics.push_back({"trace.overhead", overhead, "ratio"});
  const ProbeReading after = host_probe();

  // Trace summary and spans.
  const std::string stem = args.out_dir + "/trace-" + sc.workload + "-s" +
                           std::to_string(args.seed);
  std::ostringstream summary;
  summary << "{\"workload\":\"" << sc.workload << "\",\"seed\":" << args.seed
          << ",\"requests\":" << sc.timed.size()
          << ",\"overhead_prefix_ops\":" << prefix
          << ",\"untraced_prefix_wall_s\":" << num(plain.prefix_wall_s)
          << ",\"traced_prefix_wall_s\":" << num(traced.prefix_wall_s)
          << ",\"traced_wall_s\":" << num(traced.timed_wall_s)
          << ",\"server_wall_rtt_sum_ms\":" << num(rtt_sum_ms)
          << ",\"replies_diverged\":" << diverged
          << ",\"cache_agrees\":" << (cache_agrees ? "true" : "false")
          << ",\"probe\":" << probe_json(before, after)
          << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, a] : agg) {
    summary << (first ? "" : ",") << "\"" << name << "\":{\"calls\":"
            << a.calls << ",\"total_ms\":" << num(a.total_ns * kMs)
            << ",\"self_ms\":" << num(a.self_ns * kMs) << "}";
    first = false;
  }
  summary << "},\"metrics\":" << metrics_json(metrics) << "}\n";
  write_file(stem + ".json", summary.str());
  // Every span feeds the aggregates above; the file keeps the set-up spans
  // and those of the first kSpanFileRequests timed requests, so a long run
  // does not write hundreds of MB.
  constexpr std::uint32_t kSpanFileRequests = 20000;
  std::ofstream spans(stem + ".spans.tsv");
  spans << "id\tname\tparent\trequest\tstart_ns\tend_ns\tchild_ns\n";
  const auto& records = tracer.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Tracer::Record& r = records[i];
    if (r.request != Tracer::kNone && r.request >= kSpanFileRequests) continue;
    spans << i << '\t' << r.name << '\t'
          << (r.parent == Tracer::kNone ? -1 : std::int64_t(r.parent)) << '\t'
          << (r.request == Tracer::kNone ? -1 : std::int64_t(r.request))
          << '\t' << r.start_ns << '\t' << r.end_ns << '\t' << r.child_ns
          << '\n';
  }
  if (!spans) {
    std::cerr << "perfbench: could not write " << stem << ".spans.tsv\n";
  }

  std::cout << "# trace " << stem << ".json overhead=" << num(overhead)
            << " coverage=" << num(root_ns > 0 ? covered_ns / root_ns : 0.0)
            << std::endl;
  const bool correct = failed == 0 && diverged == 0 && cache_agrees;
  print_result(correct, sc.timed.size(), failed + diverged, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Expected-table generation.

int write_expected(const Args& args) {
  // Covers runs of up to 60 s, the longest BENCHMARK.json allows.
  constexpr double kMaxSeconds = 60;
  for (const std::string& workload : workload_names()) {
    if (!args.workload.empty() && workload != args.workload) continue;
    const Script sc = make_universe(workload, kMaxSeconds);
    service::Service svc(service::ServiceConfig{.threads = 1});
    Expected table;
    std::size_t conflicts = 0;
    const auto record = [&](const Op& op, const std::string& reply) {
      if (op.check != Check::kDigest) return;
      if (reply.rfind("ok", 0) != 0) {
        throw std::runtime_error("expected-table request failed: " +
                                 op.line.substr(0, 120) + " -> " + reply);
      }
      const std::string digest = hex16(fnv1a(reply));
      const auto [it, inserted] = table.emplace(expected_key(op), digest);
      if (!inserted && it->second != digest) ++conflicts;
    };
    const std::vector<std::string> warm =
        run_warmup(sc, [&](const std::vector<WireOp>& ops) {
          std::vector<std::string> out;
          for (const WireOp& op : ops) {
            out.push_back(service::format_response(
                svc.handle_line(std::string(op.line))));
          }
          return out;
        });
    for (std::size_t i = 0; i < sc.warmup.size(); ++i) {
      record(sc.warmup[i], warm[i]);
    }
    for (const Op& op : sc.timed) {
      record(op, service::format_response(
                     svc.handle_line(resolve(op.line, warm))));
    }
    if (conflicts > 0) {
      throw std::runtime_error(workload + ": " + std::to_string(conflicts) +
                               " keys with differing replies");
    }
    std::ostringstream out;
    out << "# " << workload
        << ": FNV-1a 64 digest of the expected reply line per script key\n";
    for (const auto& [key, digest] : table) out << key << ' ' << digest << '\n';
    write_file(args.write_expected + "/" + workload + ".tsv", out.str());
    std::cerr << "perfbench: " << workload << ": " << table.size()
              << " expected replies\n";
  }
  return 0;
}

int script_digest(const Args& args) {
  const Script sc = make_script(args.workload, args.seed, args.seconds);
  std::string all;
  for (const auto* ops : {&sc.warmup, &sc.timed}) {
    for (const Op& op : *ops) {
      all += std::to_string(op.conn) + " " + op.line + "\n";
    }
  }
  std::cout << hex16(fnv1a(all)) << " " << sc.timed.size() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (!args.write_expected.empty()) return write_expected(args);
    if (args.script_digest) return script_digest(args);
    if (args.workload.empty()) {
      throw std::invalid_argument("--workload required");
    }
    const Script sc = make_script(args.workload, args.seed, args.seconds);
    const Expected exp = load_expected(args.expected_dir, args.workload);
    return args.trace ? run_trace(args, sc, exp) : run_e2e(args, sc, exp);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
