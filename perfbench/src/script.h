// Fixed, seeded op scripts for the service benchmark's workloads.
//
// A script is the complete list of request lines one run sends, in order,
// split over two client connections.  It is a pure function of
// (workload, seed, seconds): the op count is fixed by the script, never by
// how many ops happen to fit in the run, so every run of one script does
// the same work.  `seconds` only scales the number of rounds, through
// per-workload constants that are part of the benchmark, not measured.
//
// The seed permutes the order of the stateless requests and how they are
// dealt to the two connections; it never changes which requests a run
// makes, so every seed's run does the same work.  Stateful sessions
// (`feed`/`replan` keys, `shard-sweep` ids) each belong to exactly one
// connection and their own request sequence never depends on the seed, so
// every reply of every seed's script has an entry in the committed
// expected table.
//
// Request templates may reference replies of warm-up ops, resolved at run
// time by resolve():
//   @P<k>             the `paths=` field of warm-up op k's reply;
//   @D<k>.<epoch>.<s> delivered flags (0/1 CSV) for that subset, drawn
//                     from a generator keyed by (s, epoch); the loss rate
//                     alternates every 8 epochs so drift detection fires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// How a reply is checked.
enum class Check {
  kDigest,  ///< Must be `ok` and match the committed digest for `key`.
  kFields,  ///< Must be `ok` and carry `fields` (non-deterministic values).
};

struct Op {
  std::string line;  ///< Request template (see resolve()).
  /// Owning client connection (0 or 1).  Connections are strict
  /// request/reply and each session's ops sit on one connection, so the
  /// server executes a session's requests in script order.
  int conn = 0;
  Check check = Check::kDigest;
  /// Expected-table key of a stateful op ("<session>#<position>"); empty
  /// for stateless ops, whose key is derived from the line (expected_key).
  std::string key;
  /// Required fields for kFields (static lists owned by the script code).
  const std::vector<std::string>* fields = nullptr;
};

struct Script {
  std::string workload;
  std::vector<Op> warmup;     ///< Untimed; counted in setup_s.
  std::vector<Op> timed;
  /// End (exclusive index into `timed`) of each block.  The timed phase
  /// runs block by block, draining both connections between blocks, and
  /// the end-to-end figures are medians over blocks, so a slow spell of
  /// the host that covers a few blocks does not move them.  Which ops a
  /// block holds never depends on the seed (it only orders them), and
  /// every block of a workload holds the same mix of requests.
  std::vector<std::size_t> block_end;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The script of one run.  Throws std::invalid_argument on an unknown
/// workload.
Script make_script(const std::string& workload, std::uint64_t seed,
                   double seconds);

/// Every op any seed's script can contain for runs of up to `seconds`
/// (used to generate the expected table).
Script make_universe(const std::string& workload, double seconds);

/// Substitutes @P / @D references with values taken from warm-up replies
/// (`warm_replies[k]` is the reply line of warm-up op k).
std::string resolve(const std::string& line,
                    const std::vector<std::string>& warm_replies);

/// The op's key in the expected table: Op::key for stateful ops, "L" +
/// hex16(fnv1a(line)) for stateless ones.
std::string expected_key(const Op& op);

/// 64-bit FNV-1a, rendered as 16 hex digits.
std::uint64_t fnv1a(std::string_view text);
std::string hex16(std::uint64_t value);

/// Value of `key=` in a reply or request line ("" when absent).
std::string field_of(std::string_view line, std::string_view key);

}  // namespace perfbench
