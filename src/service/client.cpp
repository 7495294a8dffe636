#include "service/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace rnt::service {
namespace {

timeval to_timeval(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>(1e6 * (seconds - std::floor(seconds)));
  return tv;
}

}  // namespace

TcpClient::TcpClient(const std::string& host, std::uint16_t port,
                     ClientOptions options)
    : host_(host == "localhost" ? "127.0.0.1" : host),
      port_(port),
      options_(options) {
  connect_to_server();
}

TcpClient::TcpClient(const std::string& host, std::uint16_t port,
                     double timeout_s)
    : TcpClient(host, port,
                ClientOptions{.connect_timeout_s = timeout_s,
                              .reply_timeout_s = timeout_s}) {}

TcpClient::~TcpClient() { disconnect(); }

void TcpClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void TcpClient::connect_to_server() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    disconnect();
    throw std::runtime_error("bad IPv4 address: " + host_);
  }

  // Non-blocking connect bounded by poll: the kernel's default connect
  // timeout is minutes, far beyond any useful request deadline.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const std::string where = host_ + ":" + std::to_string(port_);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      const std::string what = std::strerror(errno);
      disconnect();
      throw std::runtime_error("connect " + where + ": " + what);
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.connect_timeout_s));
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        disconnect();
        throw std::runtime_error("connect " + where + ": timed out");
      }
      pollfd pfd{fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        const std::string what = std::strerror(errno);
        disconnect();
        throw std::runtime_error("connect " + where + ": " + what);
      }
      if (ready == 0) {
        disconnect();
        throw std::runtime_error("connect " + where + ": timed out");
      }
      break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      disconnect();
      throw std::runtime_error("connect " + where + ": " +
                               std::strerror(err));
    }
  }
  ::fcntl(fd_, F_SETFL, flags);

  const timeval tv = to_timeval(options_.reply_timeout_s);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Response TcpClient::call(const Request& request) {
  return parse_response(call_line(format_request(request)));
}

std::string TcpClient::call_line(const std::string& line) {
  if (fd_ < 0) {
    throw TransportError("connection closed by an earlier failed call");
  }
  try {
    return attempt(line + "\n");
  } catch (const std::runtime_error&) {
    disconnect();
    throw;
  }
}

std::string TcpClient::attempt(const std::string& framed) {
  // One deadline bounds the whole exchange, shared by the partial-send
  // retry loop below and the kernel-side SO_RCVTIMEO/SO_SNDTIMEO.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.reply_timeout_s));
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Partial send against a full socket buffer: wait (bounded) for
        // writability and keep going instead of giving up mid-request.
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) {
          throw std::runtime_error("timed out sending the request");
        }
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready == 0) {
          throw std::runtime_error("timed out sending the request");
        }
        continue;
      }
      if (errno == ECONNRESET || errno == EPIPE) {
        throw TransportError(std::string("send: ") + std::strerror(errno));
      }
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }

  char chunk[4096];
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string reply = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!reply.empty() && reply.back() == '\r') reply.pop_back();
      return reply;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) throw TransportError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw std::runtime_error("timed out waiting for a reply");
      }
      if (errno == ECONNRESET) {
        throw TransportError(std::string("recv: ") + std::strerror(errno));
      }
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace rnt::service
