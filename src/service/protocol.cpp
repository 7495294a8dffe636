#include "service/protocol.h"

#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace rnt::service {
namespace {

constexpr std::array<std::pair<RequestType, const char*>, 15> kVerbs{{
    {RequestType::kSelect, "select"},
    {RequestType::kErEval, "er-eval"},
    {RequestType::kIdentifiability, "identifiability"},
    {RequestType::kLocalize, "localize"},
    {RequestType::kLocalizeNode, "localize-node"},
    {RequestType::kInfer, "infer"},
    {RequestType::kFeed, "feed"},
    {RequestType::kReplan, "replan"},
    {RequestType::kPipelineStats, "pipeline-stats"},
    {RequestType::kHeartbeat, "heartbeat"},
    {RequestType::kShardEval, "shard-eval"},
    {RequestType::kShardSweep, "shard-sweep"},
    {RequestType::kStats, "stats"},
    {RequestType::kPing, "ping"},
    {RequestType::kShutdown, "shutdown"},
}};

bool is_key_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
         c == '_' || c == '.';
}

/// Whitespace inside a value would break the one-line framing; fold it.
std::string sanitize_value(const std::string& value) {
  std::string out = value;
  for (char& c : out) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) c = '_';
  }
  return out;
}

std::string sanitize_message(const std::string& message) {
  std::string out = message;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

/// Splits a whitespace-separated line into tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

/// Parses "key=value" into the map; rejects malformed or duplicate keys.
void parse_param(const std::string& token,
                 std::map<std::string, std::string>& params) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
    throw std::invalid_argument("protocol: malformed parameter '" + token +
                                "' (want key=value)");
  }
  const std::string key = token.substr(0, eq);
  for (char c : key) {
    if (!is_key_char(c)) {
      throw std::invalid_argument("protocol: bad character in key '" + key +
                                  "'");
    }
  }
  if (!params.emplace(key, token.substr(eq + 1)).second) {
    throw std::invalid_argument("protocol: duplicate parameter '" + key + "'");
  }
}

/// Shortest rendering of a double that parses back to the identical bits.
std::string format_double(double value) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", value);
  // Prefer the shortest representation that parses back exactly.
  for (int precision = 1; precision < 17; ++precision) {
    std::array<char, 32> probe{};
    std::snprintf(probe.data(), probe.size(), "%.*g", precision, value);
    if (std::strtod(probe.data(), nullptr) == value) return probe.data();
  }
  return buf.data();
}

}  // namespace

const char* to_verb(RequestType type) {
  for (const auto& [t, verb] : kVerbs) {
    if (t == type) return verb;
  }
  throw std::invalid_argument("protocol: unknown request type");
}

RequestType parse_verb(const std::string& verb) {
  for (const auto& [type, name] : kVerbs) {
    if (verb == name) return type;
  }
  throw std::invalid_argument("protocol: unknown verb '" + verb + "'");
}

std::string Request::get(const std::string& key, const std::string& def) const {
  consumed_[key] = true;
  const auto it = params.find(key);
  return it == params.end() ? def : it->second;
}

std::int64_t Request::get_int(const std::string& key, std::int64_t def) const {
  const std::string raw = get(key, "");
  if (raw.empty()) return def;
  std::size_t used = 0;
  const std::int64_t value = std::stoll(raw, &used);
  if (used != raw.size()) {
    throw std::invalid_argument("parameter " + key + ": not an integer: " +
                                raw);
  }
  return value;
}

std::size_t Request::get_count(const std::string& key,
                               std::size_t def) const {
  const std::int64_t value = get_int(key, static_cast<std::int64_t>(def));
  if (value < 0) {
    throw std::invalid_argument("parameter " + key +
                                ": must be non-negative: " +
                                std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

double Request::get_double(const std::string& key, double def) const {
  const std::string raw = get(key, "");
  if (raw.empty()) return def;
  std::size_t used = 0;
  const double value = std::stod(raw, &used);
  if (used != raw.size()) {
    throw std::invalid_argument("parameter " + key + ": not a number: " + raw);
  }
  return value;
}

bool Request::get_bool(const std::string& key, bool def) const {
  const std::string raw = get(key, "");
  if (raw.empty()) return def;
  if (raw == "1" || raw == "true") return true;
  if (raw == "0" || raw == "false") return false;
  throw std::invalid_argument("parameter " + key + ": not a boolean: " + raw);
}

void Request::finish() const {
  for (const auto& [key, value] : params) {
    (void)value;
    if (!consumed_.contains(key)) {
      throw std::invalid_argument("unknown parameter for verb '" +
                                  std::string(to_verb(type)) + "': " + key);
    }
  }
}

void Response::set(std::string key, std::string value) {
  fields.emplace_back(std::move(key), sanitize_value(value));
}

void Response::set(std::string key, const char* value) {
  set(std::move(key), std::string(value));
}

void Response::set(std::string key, double value) {
  fields.emplace_back(std::move(key), format_double(value));
}

void Response::set(std::string key, std::size_t value) {
  fields.emplace_back(std::move(key), std::to_string(value));
}

const std::string* Response::find(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string& Response::at(const std::string& key) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    throw std::out_of_range("response has no field '" + key + "'");
  }
  return *value;
}

double Response::number(const std::string& key) const {
  return std::stod(at(key));
}

Response Response::failure(std::string message) {
  Response r;
  r.ok = false;
  r.error = std::move(message);
  return r;
}

Request parse_request(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) {
    throw std::invalid_argument("protocol: empty request line");
  }
  Request request;
  request.type = parse_verb(tokens.front());
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    parse_param(tokens[i], request.params);
  }
  return request;
}

std::string format_request(const Request& request) {
  std::string line = to_verb(request.type);
  for (const auto& [key, value] : request.params) {
    line += ' ';
    line += key;
    line += '=';
    line += sanitize_value(value);
  }
  return line;
}

Response parse_response(const std::string& line) {
  if (line.rfind("ok", 0) == 0 &&
      (line.size() == 2 || line[2] == ' ')) {
    Response r;
    for (const std::string& token : tokenize(line.substr(2))) {
      std::map<std::string, std::string> one;
      parse_param(token, one);
      for (auto& [key, value] : one) r.fields.emplace_back(key, value);
    }
    return r;
  }
  if (line.rfind("error", 0) == 0 &&
      (line.size() == 5 || line[5] == ' ')) {
    const std::size_t start = line.find_first_not_of(' ', 5);
    return Response::failure(start == std::string::npos ? "unspecified"
                                                        : line.substr(start));
  }
  throw std::invalid_argument("protocol: bad reply line: " + line);
}

std::string format_response(const Response& response) {
  if (!response.ok) {
    const std::string message =
        response.error.empty() ? "unspecified" : sanitize_message(response.error);
    return "error " + message;
  }
  std::string line = "ok";
  for (const auto& [key, value] : response.fields) {
    line += ' ';
    line += key;
    line += '=';
    line += sanitize_value(value);
  }
  return line;
}

std::string encode_bits(const std::vector<std::uint64_t>& bits) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bits.size() * 16);
  for (std::uint64_t word : bits) {
    for (int nibble = 0; nibble < 16; ++nibble) {
      out.push_back(kHex[(word >> (4 * nibble)) & 0xF]);
    }
  }
  return out;
}

std::vector<std::uint64_t> decode_bits(const std::string& text) {
  if (text.size() % 16 != 0) {
    throw std::invalid_argument("protocol: bit vector length not word-aligned");
  }
  std::vector<std::uint64_t> bits(text.size() / 16, 0);
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      throw std::invalid_argument("protocol: bad hex digit in bit vector");
    }
    bits[i / 16] |= nibble << (4 * (i % 16));
  }
  return bits;
}

}  // namespace rnt::service
