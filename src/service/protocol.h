// The tomography service's request/reply types and their line-delimited
// text encoding, shared by the in-process API, the TCP server, and the
// client.
//
// Grammar (one request or reply per line):
//
//   request  = verb *( SP key "=" value )
//   verb     = "select" | "er-eval" | "identifiability" | "localize"
//            | "localize-node" | "infer" | "feed" | "replan"
//            | "pipeline-stats" | "heartbeat" | "shard-eval"
//            | "shard-sweep" | "stats" | "ping" | "shutdown"
//   reply    = "ok" *( SP key "=" value ) | "error" SP message
//   key      = 1*( ALPHA | DIGIT | "-" | "_" | "." )
//   value    = 1*( any char except SP / TAB / CR / LF )
//   message  = rest of the line (may contain spaces)
//
// Keys are free-form per verb (unknown keys are rejected by the handlers,
// mirroring util/Flags).  Values never contain whitespace; the formatter
// replaces embedded whitespace with '_' so a reply always stays one line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rnt::service {

enum class RequestType {
  kSelect,
  kErEval,
  kIdentifiability,
  kLocalize,
  kLocalizeNode,   ///< Multi-failure Boolean localization over components.
  kInfer,          ///< End-to-end metric inference under failures (src/infer).
  kFeed,           ///< Telemetry into the workload's adaptive session.
  kReplan,         ///< Warm-start re-selection from the estimated model.
  kPipelineStats,  ///< Adaptive-session counters and estimates.
  kHeartbeat,      ///< Cheap liveness probe: request and sweep counts.
  kShardEval,      ///< Integer scenario ranks for a contiguous slice.
  kShardSweep,     ///< Slice-local sweep session: init/probe/add/end.
  kStats,
  kPing,
  kShutdown,
};

/// Wire verb for a request type ("select", "er-eval", ...).
const char* to_verb(RequestType type);

/// Inverse of to_verb; throws std::invalid_argument on unknown verbs.
RequestType parse_verb(const std::string& verb);

/// A typed request plus its key=value parameters.
struct Request {
  RequestType type = RequestType::kPing;
  std::map<std::string, std::string> params;

  /// Typed parameter getters with defaults; each marks the key consumed so
  /// finish() can reject typos, mirroring util/Flags.
  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  /// A non-negative integer (a size or a count); throws
  /// std::invalid_argument on a negative value instead of wrapping it.
  std::size_t get_count(const std::string& key, std::size_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Throws std::invalid_argument naming any parameter never consumed.
  void finish() const;

 private:
  mutable std::map<std::string, bool> consumed_;
};

/// One reply: either ok with ordered key=value fields, or an error with a
/// human-readable message.
struct Response {
  bool ok = true;
  std::string error;                                        ///< When !ok.
  std::vector<std::pair<std::string, std::string>> fields;  ///< When ok.

  void set(std::string key, std::string value);
  void set(std::string key, const char* value);
  void set(std::string key, double value);
  void set(std::string key, std::size_t value);

  /// Pointer to the value of `key`, or nullptr when absent.
  const std::string* find(const std::string& key) const;

  /// Typed field accessors; throw std::out_of_range when the key is absent.
  const std::string& at(const std::string& key) const;
  double number(const std::string& key) const;

  static Response failure(std::string message);
};

/// Parses one request line; throws std::invalid_argument on syntax errors.
Request parse_request(const std::string& line);

/// Formats a request as one line (no trailing newline).
std::string format_request(const Request& request);

/// Parses one reply line; throws std::invalid_argument on syntax errors.
Response parse_response(const std::string& line);

/// Formats a reply as one line (no trailing newline).
std::string format_response(const Response& response);

/// Hex encoding for packed bit vectors carried in shard-sweep replies:
/// each 64-bit word renders as 16 lowercase hex digits, least-significant
/// word first, so the wire form is fixed-width and byte-for-byte
/// deterministic.  decode_bits is the exact inverse and throws
/// std::invalid_argument on non-hex input or a length that is not a
/// multiple of 16.
std::string encode_bits(const std::vector<std::uint64_t>& bits);
std::vector<std::uint64_t> decode_bits(const std::string& text);

}  // namespace rnt::service
