// The event-loop networking subsystem (src/net) and its service front
// end (service::ReactorServer).
//
// The acceptance property throughout: the reactor front end must be
// observationally identical to the in-process Service — byte-identical
// reply lines for the same request lines — while adding the overload
// behaviour of a public port: explicit admission shedding (`error
// overloaded: ...`, never a hung or dropped connection), connection caps
// below RLIMIT_NOFILE, and idle eviction of slow-loris clients.
// Everything here is deterministic in-process loopback: no sleeps
// standing in for synchronisation, no timing assertions tighter than the
// test's own read deadlines.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/framing.h"
#include "net/poller.h"
#include "net/reactor.h"
#include "net/timeout_wheel.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/reactor_server.h"
#include "service/service.h"

namespace rnt {
namespace {

using net::FrameStatus;
using net::LineFramer;
using net::LengthPrefixFramer;
using net::PollBackend;
using net::PollEvent;
using net::TimeoutWheel;
using service::parse_response;
using service::ReactorServer;
using service::ReactorServerConfig;
using service::Response;

// --------------------------------------------------------------------------
// Poller backends
// --------------------------------------------------------------------------
//
// Both backends run the same scenario so the poll(2) fallback stays
// honest against epoll.

std::vector<PollBackend> available_backends() {
#ifdef __linux__
  return {PollBackend::kEpoll, PollBackend::kPoll};
#else
  return {PollBackend::kPoll};
#endif
}

TEST(Poller, PipeReadinessOnEveryBackend) {
  for (const PollBackend backend : available_backends()) {
    auto poller = net::make_poller(backend);
    SCOPED_TRACE(poller->name());
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    std::vector<PollEvent> out;
    poller->add(fds[0], /*want_read=*/true, /*want_write=*/false);
    poller->wait(out, 0);
    EXPECT_TRUE(out.empty()) << "readable before any byte was written";

    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    poller->wait(out, 1000);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].fd, fds[0]);
    EXPECT_TRUE(out[0].readable);
    EXPECT_FALSE(out[0].writable);

    // The write end of a fresh pipe is immediately writable.
    poller->add(fds[1], /*want_read=*/false, /*want_write=*/true);
    poller->wait(out, 1000);
    bool saw_writable = false;
    for (const PollEvent& e : out) {
      if (e.fd == fds[1]) saw_writable = e.writable;
    }
    EXPECT_TRUE(saw_writable);

    // Dropping interest silences a still-ready fd.
    char c;
    ASSERT_EQ(::read(fds[0], &c, 1), 1);
    poller->modify(fds[1], /*want_read=*/false, /*want_write=*/false);
    poller->wait(out, 0);
    EXPECT_TRUE(out.empty());

    poller->remove(fds[0]);
    poller->remove(fds[1]);
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST(Poller, AutoResolvesAndWaitsWithNothingRegistered) {
  auto poller = net::make_poller(PollBackend::kAuto);
  EXPECT_NE(poller->name(), nullptr);
  // An empty interest set must still honour the timeout, not spin or
  // block forever.
  std::vector<PollEvent> out;
  poller->wait(out, 10);
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------------------------------
// Framing
// --------------------------------------------------------------------------

TEST(LineFramer, ByteAtATimeArrival) {
  LineFramer framer(64);
  const std::string wire = "ping\n";
  std::string_view frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    framer.append(&wire[i], 1);
    EXPECT_EQ(framer.next_frame(frame), FrameStatus::kNeedMore);
  }
  framer.append(&wire.back(), 1);
  ASSERT_EQ(framer.next_frame(frame), FrameStatus::kFrame);
  EXPECT_EQ(frame, "ping");
  EXPECT_EQ(framer.next_frame(frame), FrameStatus::kNeedMore);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(LineFramer, PipelinedBatchCrStripAndEmptyLineSkip) {
  LineFramer framer(64);
  const std::string wire = "a\r\n\n\r\nbb\nccc\n";
  framer.append(wire.data(), wire.size());
  std::string_view frame;
  ASSERT_EQ(framer.next_frame(frame), FrameStatus::kFrame);
  EXPECT_EQ(frame, "a");  // CR stripped.
  ASSERT_EQ(framer.next_frame(frame), FrameStatus::kFrame);
  EXPECT_EQ(frame, "bb");  // Empty and CR-only lines skipped.
  ASSERT_EQ(framer.next_frame(frame), FrameStatus::kFrame);
  EXPECT_EQ(frame, "ccc");
  EXPECT_EQ(framer.next_frame(frame), FrameStatus::kNeedMore);
}

TEST(LineFramer, OversizedTerminatedLineIsSticky) {
  LineFramer framer(8);
  const std::string wire = std::string(9, 'x') + "\nping\n";
  framer.append(wire.data(), wire.size());
  std::string_view frame;
  EXPECT_EQ(framer.next_frame(frame), FrameStatus::kOversized);
  // Poisoned: even the valid line behind it never comes out.
  EXPECT_EQ(framer.next_frame(frame), FrameStatus::kOversized);
}

TEST(LineFramer, OversizedUnterminatedTailIsDetectedEarly) {
  // A peer streaming a newline-free line past the cap must surface as
  // kOversized without waiting for a terminator (unbounded buffering).
  LineFramer framer(8);
  const std::string wire(9, 'y');
  framer.append(wire.data(), wire.size());
  std::string_view frame;
  EXPECT_EQ(framer.next_frame(frame), FrameStatus::kOversized);
}

TEST(LineFramer, ExactlyCapSizedLineIsFine) {
  LineFramer framer(8);
  const std::string wire = std::string(8, 'z') + "\n";
  framer.append(wire.data(), wire.size());
  std::string_view frame;
  ASSERT_EQ(framer.next_frame(frame), FrameStatus::kFrame);
  EXPECT_EQ(frame, std::string(8, 'z'));
}

TEST(LengthPrefixFramer, RoundTripsAcrossSplitAppends) {
  LengthPrefixFramer framer(1 << 16);
  const std::vector<std::string> payloads{"", "a", std::string(1000, 'q')};
  std::string wire;
  for (const std::string& p : payloads) wire += net::length_prefix_encode(p);

  // Feed the wire in 3-byte slivers so headers and payloads split across
  // appends.
  std::string_view frame;
  std::vector<std::string> decoded;
  for (std::size_t i = 0; i < wire.size(); i += 3) {
    framer.append(wire.data() + i, std::min<std::size_t>(3, wire.size() - i));
    while (framer.next_frame(frame) == FrameStatus::kFrame) {
      decoded.emplace_back(frame);
    }
  }
  EXPECT_EQ(decoded, payloads);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(LengthPrefixFramer, RejectsOversizedDeclaredLengthBeforeBuffering) {
  LengthPrefixFramer framer(16);
  // Header declaring 17 bytes; no payload sent at all.
  const std::string header = net::length_prefix_encode(std::string(17, 'p'))
                                 .substr(0, LengthPrefixFramer::kHeaderBytes);
  framer.append(header.data(), header.size());
  std::string_view frame;
  EXPECT_EQ(framer.next_frame(frame), FrameStatus::kOversized);
  EXPECT_EQ(framer.next_frame(frame), FrameStatus::kOversized);  // Sticky.
}

// --------------------------------------------------------------------------
// Timeout wheel
// --------------------------------------------------------------------------

TEST(TimeoutWheelTest, ExpiresOnlyAfterTheFullAllowance) {
  TimeoutWheel wheel(100);
  wheel.touch(1, 0);
  std::vector<std::uint64_t> expired;
  wheel.expire(50, expired);
  EXPECT_TRUE(expired.empty());
  wheel.expire(99, expired);
  EXPECT_TRUE(expired.empty());
  wheel.expire(100, expired);
  EXPECT_EQ(expired, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(wheel.size(), 0u);
  wheel.expire(500, expired);
  EXPECT_TRUE(expired.empty());  // Expired ids are forgotten, not re-fired.
}

TEST(TimeoutWheelTest, RetouchSupersedesTheOldDeadline) {
  TimeoutWheel wheel(100);
  wheel.touch(1, 0);
  wheel.touch(1, 90);  // Activity: the original deadline (100) is stale.
  std::vector<std::uint64_t> expired;
  wheel.expire(100, expired);
  EXPECT_TRUE(expired.empty());
  wheel.expire(189, expired);
  EXPECT_TRUE(expired.empty());
  wheel.expire(190, expired);
  EXPECT_EQ(expired, (std::vector<std::uint64_t>{1}));
}

TEST(TimeoutWheelTest, EraseForgetsAndLeavesOthersAlone) {
  TimeoutWheel wheel(100);
  wheel.touch(1, 0);
  wheel.touch(2, 0);
  wheel.erase(1);
  EXPECT_EQ(wheel.size(), 1u);
  std::vector<std::uint64_t> expired;
  wheel.expire(100, expired);
  EXPECT_EQ(expired, (std::vector<std::uint64_t>{2}));
}

TEST(TimeoutWheelTest, HugeSweepGapStillCatchesEveryEntry) {
  // A sweep arriving far past every deadline (loop stalled, clock jump)
  // must still expire everything in one bounded pass over kBuckets.
  TimeoutWheel wheel(100);
  for (std::uint64_t id = 1; id <= 40; ++id) wheel.touch(id, id);
  std::vector<std::uint64_t> expired;
  wheel.expire(1'000'000, expired);
  EXPECT_EQ(expired.size(), 40u);
  EXPECT_EQ(wheel.size(), 0u);
}

// --------------------------------------------------------------------------
// Loopback fixtures
// --------------------------------------------------------------------------

/// A raw loopback socket speaking bytes, not the protocol — the
/// adversary's view of the server (same shape as test_service.cpp's).
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      throw std::runtime_error("RawConn: connect failed");
    }
    // Bound every read so a wedged server fails the test instead of
    // hanging it.
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~RawConn() { close(); }

  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until '\n' (returned line excludes it) — "" on EOF/timeout.
  std::string read_line() {
    std::string line;
    char c;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return "";
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  /// Reads exactly `n` bytes (binary-safe) — shorter on EOF/timeout.
  std::string read_exact(std::size_t n) {
    std::string data;
    char buf[512];
    while (data.size() < n) {
      const ssize_t got =
          ::recv(fd_, buf, std::min(sizeof(buf), n - data.size()), 0);
      if (got <= 0) break;
      data.append(buf, static_cast<std::size_t>(got));
    }
    return data;
  }

  /// True when the server closed its end (EOF within the read deadline).
  bool server_closed() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// A ReactorServer on its own loop thread, stopped and joined on scope
/// exit.
class ReactorFixture {
 public:
  explicit ReactorFixture(ReactorServerConfig config)
      : server_(config), runner_([this] { server_.run(); }) {}

  ~ReactorFixture() {
    server_.stop();
    if (runner_.joinable()) runner_.join();
  }

  ReactorServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

 private:
  ReactorServer server_;
  std::thread runner_;
};

// --------------------------------------------------------------------------
// Reactor front end: byte-identical to the in-process service
// --------------------------------------------------------------------------

TEST(ReactorServer, RepliesAreByteIdenticalToInProcessServiceOnEveryBackend) {
  // Same request lines through Service::handle_line + format_response and
  // through a reactor per backend: every reply line must match byte for
  // byte — success payloads, parse errors, handler errors, the lot.
  const std::vector<std::string> lines{
      "ping",
      "select nodes=30 links=60 paths=30 seed=3 intensity=5 budget-frac=0.3",
      "select nodes=30 links=60 paths=30 seed=3 intensity=5 budgett-frac=0.3",
      "localize-node nodes=20 links=36 paths=24 seed=5 family=node k=2 "
      "scenarios=40",
      "localize-node nodes=20 links=36 paths=24 seed=5 family=warp k=2",
      "warp factor=9",
      "=",
      "select budget",
  };

  std::vector<std::string> expected;
  {
    service::Service reference(
        service::ServiceConfig{.threads = 1, .cache_capacity = 2});
    for (const std::string& line : lines) {
      expected.push_back(
          service::format_response(reference.handle_line(line)));
    }
  }

  for (const PollBackend backend : available_backends()) {
    ReactorFixture reactor(ReactorServerConfig{
        .threads = 2, .cache_capacity = 2, .backend = backend});
    SCOPED_TRACE(reactor.server().backend_name());
    service::TcpClient client("127.0.0.1", reactor.port(), 30.0);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(client.call_line(lines[i]), expected[i]) << lines[i];
    }
  }
}

TEST(ReactorServer, ShutdownVerbAnswersThenStopsRun) {
  ReactorServer server(ReactorServerConfig{.threads = 1});
  std::thread runner([&server] { server.run(); });
  {
    service::TcpClient client("127.0.0.1", server.port(), 30.0);
    const Response down = parse_response(client.call_line("shutdown"));
    ASSERT_TRUE(down.ok) << down.error;
    EXPECT_EQ(down.at("shutting-down"), "1");
  }
  runner.join();  // The request stopped run(); joining proves it.
  EXPECT_TRUE(server.stopping());
}

TEST(ReactorServer, StopUnblocksRun) {
  ReactorServer server(ReactorServerConfig{.threads = 1});
  std::thread runner([&server] { server.run(); });
  server.stop();  // What the SIGINT handler does.
  runner.join();
}

// --------------------------------------------------------------------------
// Framing edge cases on the wire
// --------------------------------------------------------------------------

TEST(ReactorServer, ByteAtATimeRequestStillAnswered) {
  ReactorFixture reactor(ReactorServerConfig{.threads = 1});
  RawConn raw(reactor.port());
  for (const char c : std::string("ping\n")) {
    raw.send_bytes(std::string(1, c));
  }
  const std::string reply = raw.read_line();
  ASSERT_FALSE(reply.empty());
  EXPECT_TRUE(parse_response(reply).ok);
}

TEST(ReactorServer, PipelinedRepliesComeBackInRequestOrder) {
  ReactorFixture reactor(ReactorServerConfig{.threads = 2});
  RawConn raw(reactor.port());
  // One write, three requests: ok / error / ok, strictly in order even
  // though the pool may finish them in any order.
  raw.send_bytes("ping\nwarp factor=9\nping\n");
  const Response first = parse_response(raw.read_line());
  const Response second = parse_response(raw.read_line());
  const Response third = parse_response(raw.read_line());
  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(second.ok);
  EXPECT_TRUE(third.ok) << third.error;
  // Two of the three frames decoded behind another from the same batch.
  EXPECT_EQ(reactor.server().service().metrics().pipelined_requests,
            2u);
}

TEST(ReactorServer, OversizedTerminatedLineAnsweredThenClosed) {
  ReactorFixture reactor(
      ReactorServerConfig{.threads = 1, .max_line_bytes = 256});
  RawConn raw(reactor.port());
  raw.send_bytes(std::string(300, 'a') + "\n");
  const std::string reply = raw.read_line();
  ASSERT_FALSE(reply.empty()) << "no structured reply before close";
  const Response r = parse_response(reply);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exceeds 256 bytes"), std::string::npos) << r.error;
  EXPECT_TRUE(raw.server_closed());
}

TEST(ReactorServer, OversizedUnterminatedTailAnsweredThenClosed) {
  ReactorFixture reactor(
      ReactorServerConfig{.threads = 1, .max_line_bytes = 256});
  RawConn raw(reactor.port());
  raw.send_bytes(std::string(300, 'b'));  // No newline, ever.
  const std::string reply = raw.read_line();
  ASSERT_FALSE(reply.empty()) << "unterminated flood was buffered silently";
  EXPECT_NE(parse_response(reply).error.find("exceeds 256 bytes"),
            std::string::npos);
  EXPECT_TRUE(raw.server_closed());

  // The port is still healthy for the next client.
  service::TcpClient client("127.0.0.1", reactor.port(), 5.0);
  EXPECT_TRUE(parse_response(client.call_line("ping")).ok);
}

TEST(ReactorServer, SlowLorisIsEvictedByTheIdleTimeout) {
  ReactorFixture reactor(
      ReactorServerConfig{.threads = 1, .idle_timeout_ms = 150});
  RawConn raw(reactor.port());
  raw.send_bytes("pin");  // A request that never completes.
  // The wheel evicts at ~150ms + a bucket width; the 5s read deadline
  // bounds the wait, EOF proves the eviction.
  EXPECT_TRUE(raw.server_closed());
  EXPECT_EQ(reactor.server().service().metrics().idle_timeouts, 1u);
}

// --------------------------------------------------------------------------
// Backpressure: admission queue and connection cap
// --------------------------------------------------------------------------

TEST(ReactorServer, AdmissionOverflowShedsInOrderAndKeepsTheConnection) {
  // max_queue=1, one write carrying a slow select plus two pings: the
  // select is admitted, both pings arrive while it is in flight and are
  // shed.  Deterministic: the loop decodes every frame of the batch
  // before pool completions can re-enter it, so in_flight is still 1
  // when the pings are considered (and the single-threaded pool keeps
  // the select running long past the decode anyway).
  ReactorFixture reactor(ReactorServerConfig{.threads = 1, .max_queue = 1});
  RawConn raw(reactor.port());
  raw.send_bytes(
      "select nodes=30 links=60 paths=30 seed=3 intensity=5 budget-frac=0.3\n"
      "ping\nping\n");
  const Response first = parse_response(raw.read_line());
  const Response second = parse_response(raw.read_line());
  const Response third = parse_response(raw.read_line());
  EXPECT_TRUE(first.ok) << first.error;  // The admitted select, in order.
  ASSERT_FALSE(second.ok);
  EXPECT_NE(second.error.find("overloaded"), std::string::npos)
      << second.error;
  ASSERT_FALSE(third.ok);
  EXPECT_NE(third.error.find("overloaded"), std::string::npos);
  EXPECT_EQ(reactor.server().service().metrics().shed_requests,
            2u);

  // Shedding answers the request, it does not punish the connection.
  raw.send_bytes("ping\n");
  EXPECT_TRUE(parse_response(raw.read_line()).ok);
}

TEST(ReactorServer, ConnectionCapShedsWithBannerAndRecovers) {
  ReactorFixture reactor(
      ReactorServerConfig{.threads = 1, .max_connections = 2});
  EXPECT_EQ(reactor.server().connection_cap(), 2u);

  auto a = std::make_unique<RawConn>(reactor.port());
  RawConn b(reactor.port());
  // A ping round trip proves each connection is registered before the
  // third one arrives.
  a->send_bytes("ping\n");
  ASSERT_TRUE(parse_response(a->read_line()).ok);
  b.send_bytes("ping\n");
  ASSERT_TRUE(parse_response(b.read_line()).ok);

  // The third connection gets the structured banner, then EOF.
  RawConn shed(reactor.port());
  const Response banner = parse_response(shed.read_line());
  EXPECT_FALSE(banner.ok);
  EXPECT_NE(banner.error.find("overloaded: connection limit reached"),
            std::string::npos)
      << banner.error;
  EXPECT_TRUE(shed.server_closed());
  EXPECT_EQ(reactor.server().shed_connections(), 1u);
  EXPECT_EQ(reactor.server().service().metrics().shed_connections,
            1u);

  // Closing one admitted connection frees the slot; the loop may take a
  // sweep or two to observe the EOF, so retry under a deadline.
  a.reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    RawConn retry(reactor.port());
    retry.send_bytes("ping\n");
    const std::string reply = retry.read_line();
    recovered = !reply.empty() && parse_response(reply).ok;
  }
  EXPECT_TRUE(recovered) << "freed connection slot was never reusable";
}

TEST(ReactorServer, DefaultConnectionCapStaysBelowRlimitNofile) {
  ReactorServer server(ReactorServerConfig{.threads = 1});
  rlimit rl{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &rl), 0);
  EXPECT_GT(server.connection_cap(), 0u);
  // Headroom for the listener, wake pipe, emergency fd and workload
  // files: hitting EMFILE in steady state would wedge the acceptor.
  EXPECT_LT(server.connection_cap(), static_cast<std::size_t>(rl.rlim_cur));
}

// --------------------------------------------------------------------------
// Reactor counters in the stats verb
// --------------------------------------------------------------------------

TEST(ReactorServer, StatsVerbSurfacesReactorCountersAndTheyMove) {
  ReactorFixture reactor(ReactorServerConfig{.threads = 2});
  RawConn pipelined(reactor.port());
  pipelined.send_bytes("ping\nping\n");
  ASSERT_TRUE(parse_response(pipelined.read_line()).ok);
  ASSERT_TRUE(parse_response(pipelined.read_line()).ok);

  service::TcpClient client("127.0.0.1", reactor.port(), 30.0);
  const Response stats = parse_response(client.call_line("stats"));
  ASSERT_TRUE(stats.ok) << stats.error;
  // The pipelined RawConn plus this client: the open-connections gauge
  // is refreshed at every accept, so both are visible.
  EXPECT_EQ(stats.at("open-connections"), "2");
  EXPECT_GE(stats.number("pipelined-requests"), 1.0);
  EXPECT_EQ(stats.at("shed-requests"), "0");
  EXPECT_EQ(stats.at("shed-connections"), "0");
  EXPECT_EQ(stats.at("idle-timeouts"), "0");
  // queue-depth is a point-in-time gauge; present is the contract.
  EXPECT_NO_THROW((void)stats.number("queue-depth"));
}

// --------------------------------------------------------------------------
// Blocking TcpClient hardening (peer vanishing mid-reply)
// --------------------------------------------------------------------------

/// A scripted one-shot listener: accepts, reads a line, answers with the
/// given bytes verbatim, closes.  `replies` supplies one script entry per
/// accepted connection.
class ScriptedListener {
 public:
  explicit ScriptedListener(std::vector<std::string> replies)
      : replies_(std::move(replies)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 4) != 0) {
      throw std::runtime_error("ScriptedListener: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~ScriptedListener() {
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    for (const std::string& reply : replies_) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      char buf[256];
      // One request line is enough for the script; ignore its content.
      (void)::recv(conn, buf, sizeof(buf), 0);
      (void)::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(conn);
    }
  }

  std::vector<std::string> replies_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(TcpClientTransport, PeerClosingMidReplyThrowsTransportError) {
  // The server dies after half a reply line: with no retries left the
  // client must surface a TransportError (connection-level), not a
  // timeout and not a silent truncated "reply".
  ScriptedListener listener({"ok pong="});  // No terminating newline.
  service::TcpClient client(
      "127.0.0.1", listener.port(),
      service::ClientOptions{.connect_timeout_s = 5.0,
                             .reply_timeout_s = 5.0,
                             .retries = 0});
  EXPECT_THROW((void)client.call_line("ping"), service::TransportError);
}

TEST(TcpClientTransport, RetryReconnectsAfterMidReplyCloseAndSucceeds) {
  // Same mid-reply close, but with one retry: the client reconnects and
  // the second attempt lands a complete reply.
  ScriptedListener listener({"ok pong=", "ok pong=1\n"});
  service::TcpClient client(
      "127.0.0.1", listener.port(),
      service::ClientOptions{.connect_timeout_s = 5.0,
                             .reply_timeout_s = 5.0,
                             .retries = 1,
                             .backoff_s = 0.01});
  EXPECT_EQ(client.call_line("ping"), "ok pong=1");
  EXPECT_EQ(client.reconnects(), 1u);
}

// --------------------------------------------------------------------------
// The reactor as a reusable subsystem (not just the service front end)
// --------------------------------------------------------------------------

/// A minimal protocol on the length-prefixed codec: every frame comes
/// back reversed.  Exercises the subclass surface end to end without any
/// service machinery.
class ReverseEchoReactor : public net::Reactor {
 public:
  explicit ReverseEchoReactor(net::ReactorConfig config)
      : net::Reactor(config) {}

 private:
  void on_frame(Connection& conn, std::string_view frame,
                bool pipelined) override {
    (void)pipelined;
    std::string reversed(frame.rbegin(), frame.rend());
    send_to(conn, net::length_prefix_encode(reversed));
  }
};

TEST(Reactor, LengthPrefixedSubclassEchoesFramesBack) {
  ReverseEchoReactor reactor(net::ReactorConfig{
      .max_frame_bytes = 1024, .framing = net::FramingMode::kLengthPrefix});
  std::thread runner([&reactor] { reactor.run(); });

  {
    RawConn raw(reactor.port());
    raw.send_bytes(net::length_prefix_encode("hello") +
                   net::length_prefix_encode("ab"));
    const std::string expected =
        net::length_prefix_encode("olleh") + net::length_prefix_encode("ba");
    EXPECT_EQ(raw.read_exact(expected.size()), expected);
  }

  reactor.stop();
  runner.join();
}

}  // namespace
}  // namespace rnt
