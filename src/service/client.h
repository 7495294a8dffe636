// Blocking TCP client for the tomography service's line protocol, with
// explicit deadlines.
//
// Every stage of a call is time-bounded: the connect runs non-blocking
// under `connect_timeout_s` (a dead or blackholed server cannot park the
// caller in the kernel's minutes-long default), and replies are bounded by
// `reply_timeout_s` via SO_RCVTIMEO/SO_SNDTIMEO.  A failed call tears the
// connection down, so a late reply can never be read as the answer to a
// later request; every call after that throws TransportError.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "service/protocol.h"

namespace rnt::service {

/// A connection-level failure: the peer closed or reset the connection
/// (EOF mid-reply, ECONNRESET, EPIPE) or a socket operation failed
/// outright, or an earlier failed call already closed the connection.
/// Derives from std::runtime_error so generic catch sites keep working;
/// callers that care can distinguish it from timeouts and protocol
/// errors.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

struct ClientOptions {
  double connect_timeout_s = 5.0;  ///< Bounds the connect.
  double reply_timeout_s = 60.0;   ///< Per send/recv while awaiting a reply.
};

class TcpClient {
 public:
  /// Connects to host:port (host: dotted IPv4 or "localhost"); throws
  /// std::runtime_error when the connect fails or times out.
  TcpClient(const std::string& host, std::uint16_t port,
            ClientOptions options);

  /// `timeout_s` bounds both the connect and each reply wait.
  TcpClient(const std::string& host, std::uint16_t port,
            double timeout_s = 60.0);

  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Sends one request and waits for its reply line.  Throws
  /// TransportError when the connection died under the call (peer closed
  /// mid-reply, ECONNRESET, EPIPE) or an earlier call failed, and plain
  /// std::runtime_error for timeouts.
  Response call(const Request& request);

  /// Raw form: sends `line` verbatim (newline appended) and returns the
  /// reply line.
  std::string call_line(const std::string& line);

 private:
  /// Bounded connect; throws on failure.
  void connect_to_server();
  /// One send+receive on the live connection; throws on failure.
  std::string attempt(const std::string& framed);
  void disconnect();

  std::string host_;
  std::uint16_t port_ = 0;
  ClientOptions options_;
  int fd_ = -1;
  std::string buffer_;  ///< Bytes received past the last reply line.
};

}  // namespace rnt::service
