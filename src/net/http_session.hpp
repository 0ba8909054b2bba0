#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/fault_hooks.hpp"
#include "net/fetch_hooks.hpp"
#include "net/tcp.hpp"

namespace mahimahi::net {

/// Prefork-style worker pool semantics for one server instance: each live
/// connection holds a worker for its whole lifetime (Apache prefork with
/// keep-alive); when the pool is exhausted, further connections wait while
/// the server spawns workers at a bounded rate. Collapsing a 20-origin
/// site onto one server funnels ~60+ simultaneous browser connections
/// into one cold pool — the mechanism behind the paper's Table 2 and
/// Figure 3 single-server penalty. A multi-origin replay gives each origin
/// its own pool, and per-origin demand (<= 6 connections) never starves.
struct WorkerPool {
  int initial_workers{1024};  // effectively uncontended by default
  int max_workers{4096};
  /// One extra worker is spawned per interval while connections wait.
  Microseconds spawn_interval{25'000};
};

/// What an origin does with one parsed request, whatever the framing.
/// HttpServer and mux::MuxServer supply only how a response and a crash
/// go out on the wire; the fault verdict, think time and crash cut are
/// this one pipeline, so a `crash`/`stall`/`slowstart` fault line means
/// the same thing on both protocols. `processing_delay` is pure
/// per-request latency (think time).
class OriginServer {
 public:
  /// Maps a request to its framed response wire bytes — typically
  /// `http::to_framed_bytes(response)`, which serializes the response
  /// once, straight into the buffer the connection then sends from. Runs
  /// once per complete request.
  using Handler = std::function<std::string(const http::Request&)>;

  virtual ~OriginServer() = default;
  OriginServer(const OriginServer&) = delete;
  OriginServer& operator=(const OriginServer&) = delete;

  [[nodiscard]] Address address() const { return listener_.local_address(); }
  [[nodiscard]] std::uint64_t requests_served() const { return requests_served_; }
  [[nodiscard]] std::size_t active_connections() const {
    return listener_.active_connections();
  }
  [[nodiscard]] std::uint64_t total_accepted() const {
    return listener_.total_accepted();
  }
  [[nodiscard]] std::uint64_t faults_injected() const { return faults_injected_; }

  /// Fault injection: consulted once per parsed request (indexed in parse
  /// order, including requests that end up faulted; a malformed request
  /// takes no index). Null = no faults.
  void set_fault_hook(ServerFaultHook hook) { fault_hook_ = std::move(hook); }

 protected:
  /// `config` applies to every accepted connection — notably the
  /// congestion controller serving this origin's responses.
  OriginServer(Fabric& fabric, Address local, Handler handler,
               Microseconds processing_delay, TcpConnection::Config config);

  /// Wires one accepted connection's callbacks (the framing's session).
  virtual TcpConnection::Callbacks make_callbacks(
      const std::shared_ptr<TcpConnection>& connection) = 0;

  /// Serves one parsed request: takes the fault verdict (indexed in parse
  /// order), swallows a stall, runs the handler, then — after think time
  /// plus the fault's extra delay, or at once when that is zero — calls
  /// `respond(wire)`, or on a crash `crash(prefix)` with a prefix of at
  /// least one byte. Returns false after a crash: the connection is (about
  /// to be) gone, so the caller stops reading its requests.
  template <typename Respond, typename Crash>
  bool serve(const http::Request& request, Respond respond, Crash crash) {
    ServerFault fault;
    if (fault_hook_) {
      fault = fault_hook_(requests_seen_);
    }
    ++requests_seen_;
    if (fault.kind == ServerFault::Kind::kStall) {
      // Accept-and-stall: the request is swallowed and no response ever
      // comes (a hung worker).
      ++faults_injected_;
      return true;
    }
    std::string wire = handler_(request);
    ++requests_served_;
    const Microseconds delay = processing_delay_ + fault.extra_delay;
    const auto after_delay = [&](auto action) {
      // Simulated server think time (first-byte latency); overlaps freely
      // across requests.
      if (delay > 0) {
        fabric_.loop().schedule_in(delay, std::move(action));
      } else {
        action();
      }
    };
    if (fault.kind == ServerFault::Kind::kCrash) {
      // Crash mid-response: a prefix of the wire bytes, then RST.
      ++faults_injected_;
      const double fraction = std::clamp(fault.fraction, 0.0, 1.0);
      const auto cut = static_cast<std::size_t>(
          static_cast<double>(wire.size()) * fraction);
      wire.resize(std::max<std::size_t>(1, std::min(cut, wire.size())));
      after_delay([crash = std::move(crash), wire = std::move(wire)]() mutable {
        crash(std::move(wire));
      });
      return false;
    }
    after_delay([respond = std::move(respond),
                 wire = std::move(wire)]() mutable {
      respond(std::move(wire));
    });
    return true;
  }

  /// The 400 answering a request that failed to parse.
  [[nodiscard]] static http::Response bad_request();

  Fabric& fabric_;

 private:
  Handler handler_;
  Microseconds processing_delay_;
  std::uint64_t requests_served_{0};
  std::uint64_t requests_seen_{0};  // fault-hook index (includes faulted)
  std::uint64_t faults_injected_{0};
  ServerFaultHook fault_hook_;
  TcpListener listener_;  // declared last: its callbacks reference the above
};

/// An HTTP/1.1 origin server running over simulated TCP. Each accepted
/// connection gets a RequestParser; complete requests are answered by the
/// handler in arrival order, honouring keep-alive. Both RecordShell's
/// upstream origins (LiveWeb) and ReplayShell's origin servers are built
/// on this. Connection concurrency is governed by the WorkerPool.
class HttpServer final : public OriginServer {
 public:
  HttpServer(Fabric& fabric, Address local, Handler handler,
             Microseconds processing_delay = 0,
             TcpConnection::Config config = {});

  /// Install prefork-style concurrency limits. Call before traffic arrives.
  void set_worker_pool(const WorkerPool& pool);

  /// Connections that had to wait for a worker (starvation indicator).
  [[nodiscard]] std::uint64_t worker_waits() const { return worker_waits_; }

 private:
  struct Session {
    std::weak_ptr<TcpConnection> connection;
    http::RequestParser parser;
    bool closing{false};
    bool has_worker{false};
    bool worker_released{false};
  };

  TcpConnection::Callbacks make_callbacks(
      const std::shared_ptr<TcpConnection>& connection) override;
  void on_data(const std::shared_ptr<Session>& session, std::string_view bytes);
  void drain_requests(const std::shared_ptr<Session>& session);
  void request_worker(const std::shared_ptr<Session>& session);
  void release_worker(const std::shared_ptr<Session>& session);
  void grant_workers();
  void arm_spawn_timer();

  WorkerPool pool_;
  int workers_spawned_{0};   // current pool size
  int workers_busy_{0};
  std::deque<std::shared_ptr<Session>> waiting_;
  EventLoop::EventId spawn_event_{0};
  std::uint64_t worker_waits_{0};
};

/// The error text both client connections report when TCP resets: the
/// typed reason for a connect timeout or exhausted retransmits (the
/// browser's retry policy matches on them), "connection reset" otherwise.
std::string reset_error(TcpConnection::CloseReason reason);

/// One HTTP/1.1 client connection over simulated TCP with keep-alive and
/// request queuing (no pipelining: the next request goes out when the
/// previous response has fully arrived — matching 2014 browsers).
class HttpClientConnection {
 public:
  using ResponseCallback = std::function<void(http::Response)>;
  /// Connection failed or died before/while a request was outstanding.
  using ErrorCallback = std::function<void(const std::string& reason)>;

  HttpClientConnection(Fabric& fabric, Address server,
                       ErrorCallback on_error = {},
                       TcpConnection::Config config = {});

  HttpClientConnection(const HttpClientConnection&) = delete;
  HttpClientConnection& operator=(const HttpClientConnection&) = delete;

  /// Queue a request; `callback` fires with the complete response.
  /// `hooks` (optional) observe the request's transport edges.
  void fetch(http::Request request, ResponseCallback callback,
             FetchHooks hooks = {});

  /// Half-close after the queue drains (Connection: close semantics).
  void close_when_idle();

  /// Hard-kill the connection (RST) without invoking the error callback —
  /// the caller has already decided this request's fate (deadline expiry).
  void abort();

  [[nodiscard]] bool idle() const { return outstanding_ == 0 && queue_.empty(); }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size() + outstanding_; }
  [[nodiscard]] const TcpConnection& connection() const {
    return client_.connection();
  }

 private:
  struct PendingRequest {
    http::Request request;
    ResponseCallback callback;
    FetchHooks hooks;
  };

  void notify_connected();
  void maybe_send_next();
  void on_data(std::string_view bytes);
  void fail(const std::string& reason);

  http::ResponseParser parser_;
  std::deque<PendingRequest> queue_;
  std::deque<ResponseCallback> in_flight_callbacks_;
  /// Hooks of the single outstanding request (no pipelining, so one set).
  FetchHooks current_hooks_;
  std::size_t outstanding_{0};
  bool connected_{false};
  bool alive_{true};
  bool close_when_idle_{false};
  ErrorCallback on_error_;
  TcpClient client_;  // declared last: its callbacks reference the above
};

}  // namespace mahimahi::net
