#include "net/http_session.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mahimahi::net {

// --- OriginServer -------------------------------------------------------------

OriginServer::OriginServer(Fabric& fabric, Address local, Handler handler,
                           Microseconds processing_delay,
                           TcpConnection::Config config)
    : fabric_{fabric},
      handler_{std::move(handler)},
      processing_delay_{processing_delay},
      listener_{fabric, local,
                [this](const std::shared_ptr<TcpConnection>& c) {
                  return make_callbacks(c);
                },
                std::move(config)} {
  MAHI_ASSERT(handler_ != nullptr);
}

http::Response OriginServer::bad_request() {
  http::Response bad;
  bad.status = 400;
  bad.reason = "Bad Request";
  return bad;
}

// --- HttpServer ---------------------------------------------------------------

HttpServer::HttpServer(Fabric& fabric, Address local, Handler handler,
                       Microseconds processing_delay,
                       TcpConnection::Config config)
    : OriginServer{fabric, local, std::move(handler), processing_delay,
                   std::move(config)} {
  workers_spawned_ = pool_.initial_workers;
}

void HttpServer::set_worker_pool(const WorkerPool& pool) {
  MAHI_ASSERT(pool.initial_workers >= 1);
  MAHI_ASSERT(pool.max_workers >= pool.initial_workers);
  MAHI_ASSERT(pool.spawn_interval > 0);
  pool_ = pool;
  workers_spawned_ = pool_.initial_workers;
}

TcpConnection::Callbacks HttpServer::make_callbacks(
    const std::shared_ptr<TcpConnection>& connection) {
  auto session = std::make_shared<Session>();
  session->connection = connection;
  TcpConnection::Callbacks callbacks;
  callbacks.on_data = [this, session](std::string_view bytes) {
    on_data(session, bytes);
  };
  callbacks.on_peer_close = [this, session] {
    // Client half-closed; finish sending whatever is queued, then FIN,
    // and return this connection's worker to the pool.
    if (const auto conn = session->connection.lock()) {
      conn->close();
    }
    release_worker(session);
  };
  callbacks.on_reset = [this, session] { release_worker(session); };
  // A worker is claimed at accept time (Apache prefork: the process is
  // bound to the connection for its lifetime, keep-alive included).
  request_worker(session);
  return callbacks;
}

void HttpServer::request_worker(const std::shared_ptr<Session>& session) {
  if (workers_busy_ < workers_spawned_) {
    ++workers_busy_;
    session->has_worker = true;
    return;
  }
  ++worker_waits_;
  waiting_.push_back(session);
  arm_spawn_timer();
}

void HttpServer::release_worker(const std::shared_ptr<Session>& session) {
  if (session->worker_released) {
    return;
  }
  session->worker_released = true;
  if (!session->has_worker) {
    // Still waiting: just drop it from the queue lazily (grant_workers
    // skips released sessions).
    return;
  }
  session->has_worker = false;
  MAHI_ASSERT(workers_busy_ > 0);
  --workers_busy_;
  grant_workers();
}

void HttpServer::grant_workers() {
  while (!waiting_.empty() && workers_busy_ < workers_spawned_) {
    auto session = std::move(waiting_.front());
    waiting_.pop_front();
    if (session->worker_released || session->connection.expired()) {
      continue;  // died while waiting
    }
    ++workers_busy_;
    session->has_worker = true;
    drain_requests(session);  // serve anything that arrived while waiting
  }
  if (!waiting_.empty()) {
    arm_spawn_timer();
  }
}

void HttpServer::arm_spawn_timer() {
  if (spawn_event_ != 0 || workers_spawned_ >= pool_.max_workers) {
    return;
  }
  spawn_event_ = fabric_.loop().schedule_in(pool_.spawn_interval, [this] {
    spawn_event_ = 0;
    if (workers_spawned_ < pool_.max_workers) {
      ++workers_spawned_;
    }
    grant_workers();
  });
}

void HttpServer::on_data(const std::shared_ptr<Session>& session,
                         std::string_view bytes) {
  session->parser.push(bytes);
  if (session->has_worker) {
    drain_requests(session);
  }
  // Without a worker, requests accumulate in the parser until one is
  // granted — the kernel buffers, Apache just hasn't accepted yet.
}

void HttpServer::drain_requests(const std::shared_ptr<Session>& session) {
  const auto connection = session->connection.lock();
  if (!connection) {
    return;
  }
  if (session->parser.failed()) {
    if (!session->closing) {
      session->closing = true;
      MAHI_WARN("http-server") << "parse failure: "
                               << session->parser.error_message();
      http::Response bad = bad_request();
      bad.headers.add("Connection", "close");
      connection->send(http::to_framed_bytes(bad));
      connection->close();
    }
    return;
  }
  while (session->parser.has_message()) {
    const http::Request request = session->parser.pop();
    const bool served = serve(
        request,
        [weak = session->connection,
         keep_alive = request.keep_alive()](std::string wire) {
          if (const auto conn = weak.lock()) {
            conn->send(std::move(wire));
            if (!keep_alive) {
              conn->close();
            }
          }
        },
        [this, session](std::string prefix) {
          // The crashed worker's slot is freed (the process died).
          if (const auto conn = session->connection.lock()) {
            conn->send(std::move(prefix));
            conn->abort();
          }
          release_worker(session);
        });
    if (!served) {
      return;
    }
  }
}

// --- HttpClientConnection -------------------------------------------------------

std::string reset_error(TcpConnection::CloseReason reason) {
  // Typed close reason from TCP: a deadline-driven resilience layer
  // treats "server crashed" and "network unreachable" differently.
  switch (reason) {
    case TcpConnection::CloseReason::kSynTimeout:
    case TcpConnection::CloseReason::kRetransmitExhausted:
      return std::string{to_string(reason)};
    default:
      return "connection reset";
  }
}

HttpClientConnection::HttpClientConnection(Fabric& fabric, Address server,
                                           ErrorCallback on_error,
                                           TcpConnection::Config config)
    : on_error_{std::move(on_error)},
      client_{fabric, server,
              TcpConnection::Callbacks{
                  .on_connected =
                      [this] {
                        connected_ = true;
                        notify_connected();
                        maybe_send_next();
                      },
                  .on_data = [this](std::string_view bytes) { on_data(bytes); },
                  .on_peer_close =
                      [this] {
                        // Server closed: completes read-until-close bodies.
                        parser_.on_close();
                        on_data({});
                        if (outstanding_ > 0 || !queue_.empty()) {
                          fail("connection closed by server");
                        } else {
                          alive_ = false;
                        }
                      },
                  .on_reset =
                      [this] {
                        fail(reset_error(client_.connection().close_reason()));
                      }},
              config} {}

void HttpClientConnection::fetch(http::Request request,
                                 ResponseCallback callback, FetchHooks hooks) {
  MAHI_ASSERT(callback != nullptr);
  if (!alive_) {
    if (on_error_) {
      on_error_("fetch on dead connection");
    }
    return;
  }
  queue_.push_back(PendingRequest{std::move(request), std::move(callback),
                                  std::move(hooks)});
  maybe_send_next();
}

void HttpClientConnection::close_when_idle() {
  close_when_idle_ = true;
  if (idle() && alive_) {
    alive_ = false;
    client_.connection().close();
  }
}

void HttpClientConnection::abort() {
  alive_ = false;
  outstanding_ = 0;
  queue_.clear();
  in_flight_callbacks_.clear();
  current_hooks_ = {};
  client_.connection().abort();
}

void HttpClientConnection::notify_connected() {
  // Every queued request was waiting on this handshake (requests only
  // queue pre-connect or behind an outstanding response, and the latter
  // implies an established connection). Fire-once per hook set.
  for (PendingRequest& pending : queue_) {
    fire_once(pending.hooks.on_connected);
  }
}

void HttpClientConnection::maybe_send_next() {
  if (!connected_ || !alive_ || outstanding_ > 0 || queue_.empty()) {
    return;
  }
  PendingRequest next = std::move(queue_.front());
  queue_.pop_front();
  parser_.notify_request(next.request.method);
  in_flight_callbacks_.push_back(std::move(next.callback));
  current_hooks_ = std::move(next.hooks);
  outstanding_ = 1;
  client_.connection().send(http::to_framed_bytes(next.request));
  if (current_hooks_.on_sent) {
    current_hooks_.on_sent();
  }
}

void HttpClientConnection::on_data(std::string_view bytes) {
  if (!bytes.empty() && outstanding_ > 0) {
    // First response bytes for the outstanding request (no pipelining, so
    // any arriving data belongs to it).
    fire_once(current_hooks_.on_first_byte);
  }
  if (!bytes.empty()) {
    parser_.push(bytes);
  }
  if (parser_.failed()) {
    fail("response parse failure: " + parser_.error_message());
    return;
  }
  while (parser_.has_message()) {
    http::Response response = parser_.pop();
    MAHI_ASSERT_MSG(!in_flight_callbacks_.empty(),
                    "response with no outstanding request");
    ResponseCallback callback = std::move(in_flight_callbacks_.front());
    in_flight_callbacks_.pop_front();
    outstanding_ = 0;
    const bool server_closing = !response.keep_alive();
    callback(std::move(response));
    if (server_closing) {
      alive_ = false;
      client_.connection().close();
      if (!queue_.empty()) {
        fail("server closed with requests queued");
      }
      return;
    }
    maybe_send_next();
  }
  if (close_when_idle_ && idle() && alive_) {
    alive_ = false;
    client_.connection().close();
  }
}

void HttpClientConnection::fail(const std::string& reason) {
  if (!alive_ && outstanding_ == 0 && queue_.empty()) {
    return;
  }
  alive_ = false;
  outstanding_ = 0;
  queue_.clear();
  in_flight_callbacks_.clear();
  current_hooks_ = {};
  if (on_error_) {
    on_error_(reason);
  }
}

}  // namespace mahimahi::net
