#include "script.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {
namespace {

// Blocks per second of --seconds, and the rounds (or cold deployments
// per topology) in a block.  These fix the script length for a given
// --seconds; they were sized so a run's timed phase lasts at most about
// --seconds on a 4-vCPU x86 guest (0.3-1.1 times it, with the host's
// speed), and they are constants so that the same arguments always give
// the same work.
constexpr double kWarmBlocksPerSecond = 2.0;
constexpr std::size_t kWarmBlockRounds = 4;  // 128 requests.
constexpr double kColdBlocksPerSecond = 0.4;
constexpr std::size_t kColdBlockPerTopology = 10;  // 30 requests.
constexpr double kDiagnoseBlocksPerSecond = 0.7;
constexpr std::size_t kDiagnoseBlockRounds = 2;  // 120 requests.

// Cold deployments per topology: enough for 60 s runs without a repeat.
constexpr std::size_t kColdListPerTopology = 480;

const char* const kTopologies[] = {"AS1755", "AS3257", "AS1239"};

std::size_t rounds_for(double seconds, double per_second) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds * per_second)));
}

std::string deployment(const std::string& as) {
  return "as=" + as + " paths=400";
}

std::string frac_text(double frac) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f", frac);
  return buf;
}

Op stateless(std::string line, int conn = 0) {
  Op op;
  op.line = std::move(line);
  op.conn = conn;
  return op;
}

Op stateful(std::string line, int conn, const std::string& session,
            std::size_t position) {
  Op op;
  op.line = std::move(line);
  op.conn = conn;
  op.key = session + "#" + std::to_string(position);
  return op;
}

Op fields_only(std::string line, int conn,
               const std::vector<std::string>& fields) {
  Op op;
  op.line = std::move(line);
  op.conn = conn;
  op.check = Check::kFields;
  op.fields = &fields;
  return op;
}

template <typename T>
void shuffle(std::vector<T>& items, rnt::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.index(i)]);
  }
}

/// Interleaves two op lists at seeded positions, keeping the order of
/// each (session ops keep their sequence among the shuffled stateless
/// ones).
std::vector<Op> interleave(std::vector<Op> a, std::vector<Op> b,
                           rnt::Rng& rng) {
  std::vector<Op> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const std::size_t left = (a.size() - i) + (b.size() - j);
    if (j == b.size() || (i < a.size() && rng.index(left) < a.size() - i)) {
      out.push_back(std::move(a[i++]));
    } else {
      out.push_back(std::move(b[j++]));
    }
  }
  return out;
}

/// Deals ops (in their canonical order) alternately to the two
/// connections, starting with connection `first`, then shuffles each
/// connection's share.  Which request goes where never depends on the
/// seed, so both connections carry the same work in every run; the seed
/// only sets each connection's order.  Returns connection 0's ops followed
/// by connection 1's.
std::vector<Op> deal(std::vector<Op> ops, std::size_t first,
                     rnt::Rng& rng) {
  std::vector<Op> per_conn[2];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].conn = int((i + first) % 2);
    per_conn[ops[i].conn].push_back(std::move(ops[i]));
  }
  for (auto& list : per_conn) shuffle(list, rng);
  for (Op& op : per_conn[1]) per_conn[0].push_back(std::move(op));
  return std::move(per_conn[0]);
}

// ---------------------------------------------------------------------------
// plan-warm: resident deployments, warm selects + feed/replan sessions.

constexpr double kWarmFracs[] = {0.1, 0.2, 0.3, 0.4};

struct Session {
  std::string name;
  std::string as;
  int conn;
  std::size_t subset_ref;  // Warm-up op whose paths are probed.
};

/// One feed/replan cycle of a session: 3 feeds + 1 replan.  Position
/// `pos` advances by 4 per cycle and fixes every value in the lines.
std::vector<Op> session_cycle(const Session& s, std::size_t pos) {
  std::vector<Op> ops;
  const std::string base = "feed " + deployment(s.as) + " subset=@P" +
                           std::to_string(s.subset_ref);
  for (std::size_t f = 0; f < 3; ++f) {
    const std::size_t epoch = pos / 4 * 3 + f;
    ops.push_back(stateful(base + " delivered=@D" +
                               std::to_string(s.subset_ref) + "." +
                               std::to_string(epoch) + "." + s.name,
                           s.conn, s.name, pos + f));
  }
  const double frac = (pos / 4) % 2 == 0 ? 0.2 : 0.3;
  ops.push_back(stateful("replan " + deployment(s.as) +
                             " budget-frac=" + frac_text(frac),
                         s.conn, s.name, pos + 3));
  return ops;
}

Script plan_warm(std::uint64_t seed, double seconds, bool universe) {
  Script sc;
  sc.workload = "plan-warm";
  std::vector<std::string> selects;
  std::size_t ref_3257 = 0, ref_1239 = 0;
  for (const char* as : kTopologies) {
    for (const double f : kWarmFracs) {
      const std::string d = deployment(as) + " budget-frac=" + frac_text(f);
      if (f == 0.2 && std::string(as) == "AS3257") ref_3257 = selects.size();
      if (f == 0.2 && std::string(as) == "AS1239") ref_1239 = selects.size();
      selects.push_back("select " + d);
      selects.push_back("select " + d +
                        " algorithm=kernel-rome optimizer=lazy-greedy");
    }
  }
  for (std::size_t i = 0; i < selects.size(); ++i) {
    sc.warmup.push_back(stateless(selects[i], int(i % 2)));
  }
  const Session sessions[] = {{"S3257", "AS3257", 0, ref_3257},
                              {"S1239", "AS1239", 1, ref_1239}};
  // The first cycle (cold replan) is part of the warm-up.
  for (const Session& s : sessions) {
    for (Op& op : session_cycle(s, 0)) sc.warmup.push_back(std::move(op));
  }

  rnt::Rng rng(seed);
  const std::size_t rounds =
      rounds_for(seconds, kWarmBlocksPerSecond) * kWarmBlockRounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<Op> round;
    for (const std::string& line : selects) round.push_back(stateless(line));
    round = deal(std::move(round), r, rng);
    std::vector<Op> per_conn[2];
    for (Op& op : round) per_conn[op.conn].push_back(std::move(op));
    for (const Session& s : sessions) {
      std::vector<Op> cycle = session_cycle(s, 4 * (r + 1));
      per_conn[s.conn] = interleave(std::move(per_conn[s.conn]),
                                    std::move(cycle), rng);
    }
    for (auto& ops : per_conn) {
      for (Op& op : ops) sc.timed.push_back(std::move(op));
    }
    if ((r + 1) % kWarmBlockRounds == 0) {
      sc.block_end.push_back(sc.timed.size());
    }
    if (universe) break;  // Stateless lines repeat; sessions added below.
  }
  if (universe) {
    sc.timed.erase(std::remove_if(sc.timed.begin(), sc.timed.end(),
                                  [](const Op& op) { return !op.key.empty(); }),
                   sc.timed.end());
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const Session& s : sessions) {
        for (Op& op : session_cycle(s, 4 * (r + 1))) {
          sc.timed.push_back(std::move(op));
        }
      }
    }
  }
  return sc;
}

// ---------------------------------------------------------------------------
// plan-cold: every request names a deployment the cache has not seen.

std::string cold_line(const char* as, std::size_t i) {
  return "select " + deployment(as) + " seed=" + std::to_string(1000 + i) +
         " algorithm=kernel-rome";
}

Script plan_cold(std::uint64_t seed, double seconds, bool universe) {
  Script sc;
  sc.workload = "plan-cold";
  // Primes the process (code pages, allocator arenas) with one cold
  // select per topology on deployments outside the cyclic list.
  for (const char* as : kTopologies) {
    sc.warmup.push_back(stateless("select " + deployment(as) +
                                      " seed=999 algorithm=kernel-rome",
                                  int(sc.warmup.size() % 2)));
  }
  if (universe) {
    for (const char* as : kTopologies) {
      for (std::size_t i = 0; i < kColdListPerTopology; ++i) {
        sc.timed.push_back(stateless(cold_line(as, i)));
      }
    }
    return sc;
  }
  rnt::Rng rng(seed);
  const std::size_t blocks = rounds_for(seconds, kColdBlocksPerSecond);
  // The same deployments for every seed (block b holds the b-th
  // kColdBlockPerTopology of each topology's list), so every seed's run
  // does the same work; the seed sets the order inside each block.  The
  // list covers runs of up to 60 s without a repeat.
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<Op> ops;
    for (const char* as : kTopologies) {
      for (std::size_t k = 0; k < kColdBlockPerTopology; ++k) {
        const std::size_t n = b * kColdBlockPerTopology + k;
        ops.push_back(stateless(cold_line(as, n % kColdListPerTopology)));
      }
    }
    for (Op& op : deal(std::move(ops), b, rng)) {
      sc.timed.push_back(std::move(op));
    }
    sc.block_end.push_back(sc.timed.size());
  }
  return sc;
}

// ---------------------------------------------------------------------------
// diagnose: inference and localization on explicit subsets, plus a few
// cheap coordinator-style requests per block.
//
// The coordinator verbs (ping, heartbeat, stats, pipeline-stats, shard-eval
// on a small slice and a shard-sweep session) carry the service, protocol
// and shard-kernel layers.  They are a few per block, so the block's cost
// stays in inference and localization.  Both connections are strict
// request/reply; the sweep session lives on connection 1.

constexpr double kDiagnoseFracs[] = {0.1, 0.2, 0.3};
constexpr std::size_t kSweepAdds = 40;        // Adds per sweep cycle.
constexpr std::size_t kSweepOpsPerBlock = 4;  // Sweep requests per block.
constexpr std::size_t kShardSubsets = 8;
constexpr std::size_t kShardEvalsPerBlock = 4;

/// Small fixed path subsets for shard-eval (independent of the seed).
std::vector<std::string> shard_subsets() {
  rnt::Rng rng(0x5eed);
  std::vector<std::string> out;
  for (std::size_t s = 0; s < kShardSubsets; ++s) {
    std::string csv;
    for (std::size_t i = 0; i < 12; ++i) {
      if (i > 0) csv += ',';
      csv += std::to_string(rng.index(400));
    }
    out.push_back(csv);
  }
  return out;
}

/// Path order the sweep walks (fixed permutation of the candidates).
std::vector<std::size_t> sweep_paths() {
  rnt::Rng rng(0xa11);
  std::vector<std::size_t> order(400);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  order.resize(kSweepAdds);
  return order;
}

/// One sweep cycle on connection 1: init, (probe, add) per path, end.
std::vector<Op> sweep_cycle() {
  const std::string head = "shard-sweep sweep=W1 begin=0 end=50";
  std::vector<Op> ops;
  std::size_t pos = 0;
  ops.push_back(
      stateful(head + " op=init " + deployment("AS1755"), 1, "W1", pos++));
  for (const std::size_t p : sweep_paths()) {
    const std::string path = " path=" + std::to_string(p);
    ops.push_back(stateful(head + " op=probe" + path, 1, "W1", pos++));
    ops.push_back(stateful(head + " op=add" + path, 1, "W1", pos++));
  }
  ops.push_back(stateful(head + " op=end", 1, "W1", pos++));
  return ops;
}

std::string shard_line(const std::vector<std::string>& subsets,
                       std::size_t s) {
  return "shard-eval " + deployment("AS1755") + " subset=" + subsets[s] +
         " begin=" + (s % 2 == 0 ? "0 end=25" : "25 end=50");
}

Script diagnose(std::uint64_t seed, double seconds, bool universe) {
  Script sc;
  sc.workload = "diagnose";
  std::vector<std::string> lines;
  for (const char* as : kTopologies) {
    for (const double f : kDiagnoseFracs) {
      const std::size_t ref = sc.warmup.size();
      sc.warmup.push_back(stateless("select " + deployment(as) +
                                        " budget-frac=" + frac_text(f),
                                    int(ref % 2)));
      const std::string on =
          deployment(as) + " subset=@P" + std::to_string(ref);
      lines.push_back("infer " + on + " scenarios=40");
      lines.push_back("infer " + on + " model=loss scenarios=40");
      lines.push_back("localize-node " + on + " scenarios=60");
      lines.push_back("localize " + on);
      lines.push_back("identifiability " + on + " scenarios=40");
      lines.push_back("er-eval " + on + " scenarios=100");
    }
  }
  const std::vector<std::string> subsets = shard_subsets();
  std::vector<std::string> cheap = {"ping"};
  for (std::size_t s = 0; s < kShardSubsets; ++s) {
    cheap.push_back(shard_line(subsets, s));
  }
  // One untimed pass over the distinct stateless requests.
  for (const auto* list : {&lines, &cheap}) {
    for (const std::string& line : *list) {
      sc.warmup.push_back(stateless(line, int(sc.warmup.size() % 2)));
    }
  }
  const std::vector<Op> cycle = sweep_cycle();
  if (universe) {
    for (const auto* list : {&lines, &cheap}) {
      for (const std::string& line : *list) {
        sc.timed.push_back(stateless(line));
      }
    }
    for (const Op& op : cycle) sc.timed.push_back(op);
    return sc;
  }

  static const std::vector<std::string> heartbeat = {"alive", "requests",
                                                     "sweeps"};
  static const std::vector<std::string> pstats = {
      "workload", "feeds", "epochs", "replans", "selected"};
  static const std::vector<std::string> stats = {
      "requests", "errors", "latency-p50-ms", "cache-hits", "cache-misses",
      "cache-hit-rate", "sessions", "sweeps", "threads"};
  rnt::Rng rng(seed);
  const std::size_t blocks = rounds_for(seconds, kDiagnoseBlocksPerSecond);
  std::size_t cycle_pos = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<Op> ops;
    for (std::size_t r = 0; r < kDiagnoseBlockRounds; ++r) {
      for (const std::string& line : lines) ops.push_back(stateless(line));
    }
    ops.push_back(stateless("ping"));
    for (std::size_t i = 0; i < kShardEvalsPerBlock; ++i) {
      ops.push_back(stateless(
          shard_line(subsets, (kShardEvalsPerBlock * b + i) % kShardSubsets)));
    }
    ops.push_back(fields_only("heartbeat", 0, heartbeat));
    ops.push_back(fields_only("pipeline-stats " + deployment("AS1755"), 0,
                              pstats));
    // One `stats` per block: its cost grows with the requests served.
    ops.push_back(fields_only("stats", 0, stats));
    std::vector<Op> per_conn[2];
    for (Op& op : deal(std::move(ops), b, rng)) {
      per_conn[op.conn].push_back(std::move(op));
    }
    std::vector<Op> sweep;
    for (std::size_t i = 0; i < kSweepOpsPerBlock; ++i) {
      sweep.push_back(cycle[cycle_pos]);
      cycle_pos = (cycle_pos + 1) % cycle.size();
    }
    per_conn[1] = interleave(std::move(per_conn[1]), std::move(sweep), rng);
    for (auto& list : per_conn) {
      for (Op& op : list) sc.timed.push_back(std::move(op));
    }
    sc.block_end.push_back(sc.timed.size());
  }
  return sc;
}

Script build(const std::string& workload, std::uint64_t seed, double seconds,
             bool universe) {
  Script sc;
  if (workload == "plan-warm") sc = plan_warm(seed, seconds, universe);
  else if (workload == "plan-cold") sc = plan_cold(seed, seconds, universe);
  else if (workload == "diagnose") sc = diagnose(seed, seconds, universe);
  else throw std::invalid_argument("unknown workload: " + workload);
  if (universe) {
    sc.block_end.assign(1, sc.timed.size());
  } else if (sc.block_end.empty() || sc.block_end.back() != sc.timed.size()) {
    throw std::logic_error("script: timed ops outside every block");
  }
  return sc;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"plan-warm", "plan-cold",
                                                 "diagnose"};
  return names;
}

Script make_script(const std::string& workload, std::uint64_t seed,
                   double seconds) {
  return build(workload, seed, seconds, false);
}

Script make_universe(const std::string& workload, double seconds) {
  return build(workload, 1, seconds, true);
}

std::string expected_key(const Op& op) {
  return op.key.empty() ? "L" + hex16(fnv1a(op.line)) : op.key;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string field_of(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    const std::string_view token = line.substr(pos, end - pos);
    if (token.size() > key.size() && token[key.size()] == '=' &&
        token.substr(0, key.size()) == key) {
      return std::string(token.substr(key.size() + 1));
    }
    pos = end + 1;
  }
  return "";
}

namespace {

std::size_t count_csv(const std::string& csv) {
  return csv.empty() ? 0 : 1 + std::count(csv.begin(), csv.end(), ',');
}

std::string delivered_flags(std::size_t n, std::size_t epoch,
                            const std::string& stream) {
  rnt::Rng rng(fnv1a(stream) ^ (epoch * 0x9E3779B97F4A7C15ULL));
  const double loss = (epoch / 8) % 2 == 0 ? 0.03 : 0.25;
  std::string csv;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) csv += ',';
    csv += rng.bernoulli(loss) ? '0' : '1';
  }
  return csv;
}

}  // namespace

std::string resolve(const std::string& line,
                    const std::vector<std::string>& warm_replies) {
  if (line.find('@') == std::string::npos) return line;
  std::string out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t at = line.find('@', pos);
    if (at == std::string::npos) {
      out.append(line, pos);
      break;
    }
    out.append(line, pos, at - pos);
    const std::size_t end = std::min(line.find(' ', at), line.size());
    const std::string ref = line.substr(at + 2, end - at - 2);
    const std::size_t k = std::stoul(ref);
    if (k >= warm_replies.size()) {
      throw std::invalid_argument("script: bad warm-up reference " + ref);
    }
    const std::string paths = field_of(warm_replies[k], "paths");
    if (line[at + 1] == 'P') {
      out += paths;
    } else {  // @D<k>.<epoch>.<stream>
      const std::size_t dot = ref.find('.');
      const std::size_t dot2 = ref.find('.', dot + 1);
      out += delivered_flags(count_csv(paths),
                             std::stoul(ref.substr(dot + 1, dot2 - dot - 1)),
                             ref.substr(dot2 + 1));
    }
    pos = end;
  }
  return out;
}

}  // namespace perfbench
