// TCP front end for the tomography service: the line protocol of
// service/protocol.h, with replies byte-identical to the in-process
// Service::handle_line, served by a net::Reactor event loop.
//
// One loop thread owns every socket; request lines are parsed into frames
// on the loop and executed on the Service's worker pool, and completions
// re-enter the loop through Reactor::post.  Replies are delivered in
// request order per connection even when a client pipelines: each request
// gets a sequence number at decode time, out-of-order completions wait in
// a per-connection reorder map, and timeouts answer in place with a
// structured `error timeout: ...` reply (the late completion is
// discarded when it eventually arrives).
//
// Backpressure is explicit: at most `max_queue` requests may be in flight
// on the pool across all connections; past that a request is answered
// `error overloaded: ...` immediately (still in order, never a hung or
// dropped connection) and counted as a shed request.  The connection cap
// (RLIMIT_NOFILE-derived by default) sheds whole connections with the
// same structured banner.  Slow-loris clients are evicted by the idle
// timeout wheel when enabled.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "net/reactor.h"
#include "service/service.h"

namespace rnt::service {

struct ReactorServerConfig {
  std::uint16_t port = 0;          ///< 0 = kernel-assigned ephemeral port.
  std::size_t threads = 0;         ///< Service pool size; 0 = hardware.
  std::size_t cache_capacity = 8;  ///< Workload cache LRU bound.
  double request_timeout_s = 60.0; ///< Per-request reply deadline.
  int backlog = 64;
  std::size_t max_line_bytes = 1 << 20;
  /// Admission bound: requests in flight on the pool (queued + running)
  /// across all connections.  0 = unbounded (no shedding).
  std::size_t max_queue = 0;
  /// Idle eviction for slow/silent clients; 0 disables it.
  std::uint64_t idle_timeout_ms = 0;
  /// Accepted-connection cap; 0 derives one below RLIMIT_NOFILE.
  std::size_t max_connections = 0;
  net::PollBackend backend = net::PollBackend::kAuto;
};

class ReactorServer : private net::Reactor {
 public:
  explicit ReactorServer(ReactorServerConfig config = {});

  using net::Reactor::port;
  using net::Reactor::stop;
  using net::Reactor::stopping;
  using net::Reactor::open_connections;
  using net::Reactor::shed_connections;
  using net::Reactor::accepted_connections;
  using net::Reactor::connection_cap;
  using net::Reactor::backend_name;

  Service& service() { return service_; }

  /// Serves until stop() (or a `shutdown` request), flushes owed replies,
  /// then drains the service pool.
  void run();

 private:
  /// One admitted (or shed) request awaiting ordered delivery.
  struct PendingRequest {
    bool answered = false;  ///< Timeout reply emitted; discard completion.
    bool shutdown = false;  ///< Acting on delivery stops the server.
  };

  struct ConnState {
    std::uint64_t next_seq = 0;      ///< Next request sequence to assign.
    std::uint64_t next_to_send = 0;  ///< Next sequence to deliver.
    std::map<std::uint64_t, std::string> ready;  ///< Reorder buffer.
    std::unordered_map<std::uint64_t, PendingRequest> pending;
    std::size_t unanswered = 0;  ///< Assigned but not yet delivered.
    bool close_after_last = false;
  };

  void on_frame(Connection& conn, std::string_view frame,
                bool pipelined) override;
  void on_oversized(Connection& conn) override;
  void on_idle_timeout(Connection& conn) override;
  void on_transport_error(Connection& conn) override;
  void on_closed(Connection& conn) override;
  void on_accepted(Connection& conn) override;
  void on_rejected() override;
  void on_tick() override;
  std::string reject_banner() override;
  bool drain_pending() override;
  bool connection_busy(const Connection& conn) const override;

  void complete(std::uint64_t conn_id, std::uint64_t seq, std::string reply);
  void queue_reply(std::uint64_t conn_id, std::uint64_t seq,
                   std::string reply);
  void deliver_ready(std::uint64_t conn_id);

  ReactorServerConfig config_;
  Service service_;
  std::unordered_map<std::uint64_t, ConnState> states_;
  /// deadline-ms -> (connection id, seq); stale entries (timed out,
  /// completed or closed) are skipped lazily.
  std::multimap<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      deadlines_;
  std::size_t in_flight_ = 0;  ///< Loop-thread-only admission counter.
};

}  // namespace rnt::service
