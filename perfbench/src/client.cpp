#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error(std::string("client: connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("client: send failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

LoadClient::LoadClient(std::uint16_t port) {
  fds_[0] = connect_loopback(port);
  try {
    fds_[1] = connect_loopback(port);
  } catch (...) {
    ::close(fds_[0]);
    throw;
  }
}

LoadClient::~LoadClient() {
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

double LoadClient::run(const std::vector<WireOp>& ops, std::size_t first,
                       std::size_t last, const OnReply& on_reply,
                       double stall_s) {
  struct Conn {
    std::size_t next = 0;       // Index of the connection's next unsent op.
    bool waiting = false;       // Whether op `in_flight` awaits its reply.
    std::size_t in_flight = 0;
    Clock::time_point sent_at;  // When op `in_flight` was written.
    std::string buffer;
  };
  Conn conns[2];
  conns[0].next = conns[1].next = first;
  const auto skip_to_own = [&](int c) {
    std::size_t& i = conns[c].next;
    while (i < last && (ops[i].conn == 0 ? 0 : 1) != c) ++i;
  };
  skip_to_own(0);
  skip_to_own(1);
  std::size_t answered = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_progress = start;
  std::string request;

  while (answered < last - first) {
    for (int c = 0; c < 2; ++c) {
      Conn& conn = conns[c];
      if (conn.waiting || conn.next >= last) continue;
      request.assign(ops[conn.next].line);
      request += '\n';
      conn.in_flight = conn.next++;
      skip_to_own(c);
      conn.sent_at = Clock::now();
      write_all(fds_[c], request);
      conn.waiting = true;
    }

    pollfd pfds[2];
    nfds_t n = 0;
    int which[2];
    for (int c = 0; c < 2; ++c) {
      if (!conns[c].waiting) continue;
      pfds[n] = pollfd{fds_[c], POLLIN, 0};
      which[n++] = c;
    }
    if (n == 0) continue;
    const int ready = ::poll(pfds, n, 1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("client: poll failed");
    }
    if (ready == 0) {
      if (std::chrono::duration<double>(Clock::now() - last_progress)
              .count() > stall_s) {
        throw std::runtime_error("client: no reply within the stall limit");
      }
      continue;
    }
    for (nfds_t k = 0; k < n; ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns[which[k]];
      char buf[65536];
      const ssize_t got = ::recv(pfds[k].fd, buf, sizeof buf, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        throw std::runtime_error("client: server closed the connection");
      }
      // The server leaves Nagle on, so a reply written while an earlier
      // one is unacknowledged waits for our ACK; acknowledge at once
      // instead of after the delayed-ACK timer (tens of ms).
      const int one = 1;
      ::setsockopt(pfds[k].fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      const Clock::time_point now = Clock::now();
      last_progress = now;
      conn.buffer.append(buf, static_cast<std::size_t>(got));
      const std::size_t nl = conn.buffer.find('\n');
      if (nl == std::string::npos) continue;
      if (nl + 1 != conn.buffer.size()) {
        throw std::runtime_error("client: reply without a request");
      }
      std::string_view line(conn.buffer.data(), nl);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      on_reply(conn.in_flight, line,
               std::chrono::duration<double, std::milli>(now - conn.sent_at)
                   .count());
      ++answered;
      conn.waiting = false;
      conn.buffer.clear();
    }
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
