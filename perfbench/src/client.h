// Closed-loop load client: one thread driving two loopback connections.
//
// Each connection is strict request/reply: it sends its own ops in order
// and the next one only after the previous reply, which is how a caller
// such as `rnt_cli client` or the cluster coordinator talks to the
// service, and keeps a stateful session's requests in script order.
// Latency is taken from the write that carried a request to the read that
// delivered its reply.  The client allocates nothing per op, so the
// driver's peak resident set stays flat while it runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct WireOp {
  std::string_view line;  ///< Resolved request line, no newline.
  int conn = 0;
};

class LoadClient {
 public:
  /// Opens both connections to 127.0.0.1:port; throws on failure.
  explicit LoadClient(std::uint16_t port);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Called for each reply as it arrives: op index, reply line (valid
  /// only during the call) and latency in ms.
  using OnReply = std::function<void(std::size_t, std::string_view, double)>;

  /// Sends ops[first, last) and waits for every reply; returns the wall
  /// seconds from the first send to the last reply.  Throws on a transport
  /// failure or when no reply arrives for `stall_s` seconds.
  double run(const std::vector<WireOp>& ops, std::size_t first,
             std::size_t last, const OnReply& on_reply,
             double stall_s = 120.0);

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace perfbench
