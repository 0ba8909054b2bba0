#include "record/proxy.hpp"

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mahimahi::record {

/// State for one accepted (intercepted) application connection. Requests
/// may arrive back-to-back on a keep-alive connection; responses must be
/// relayed in request order, so each request reserves a slot.
struct RecordingProxy::DownstreamSession {
  std::weak_ptr<net::TcpConnection> connection;
  net::Address original_destination;  // the origin the app meant to reach
  http::RequestParser parser;
  struct Slot {
    std::optional<http::Response> response;
    bool close_after{false};
  };
  std::deque<Slot> pipeline;
  /// Slots are addressed by absolute request number; flushed slots pop off
  /// the front, so slot i lives at pipeline[i - flushed].
  std::size_t flushed{0};
};

RecordingProxy::RecordingProxy(net::Fabric& inner, net::Fabric& outer,
                               RecordStore& store)
    : inner_{inner}, outer_{outer}, store_{store} {
  inner_.set_server_default(
      [this](net::Packet&& packet) { intercept(std::move(packet)); });
}

RecordingProxy::~RecordingProxy() { inner_.set_server_default({}); }

void RecordingProxy::intercept(net::Packet&& packet) {
  const net::Address destination = packet.dst;
  if (packet.protocol != net::Protocol::kTcp || listeners_.contains(destination)) {
    return;  // non-TCP noise, or a race after listener teardown
  }
  MAHI_DEBUG("record-proxy") << "intercepting " << destination.to_string();
  auto listener = std::make_unique<net::TcpListener>(
      inner_, destination,
      [this, destination](const std::shared_ptr<net::TcpConnection>& conn) {
        auto session = std::make_shared<DownstreamSession>();
        session->connection = conn;
        session->original_destination = destination;
        net::TcpConnection::Callbacks callbacks;
        callbacks.on_data = [this, session](std::string_view bytes) {
          on_downstream_data(session, bytes);
        };
        callbacks.on_peer_close = [session] {
          if (const auto c = session->connection.lock()) {
            c->close();
          }
        };
        return callbacks;
      });
  listeners_.emplace(destination, std::move(listener));
  // Replay the packet now that the address is bound.
  inner_.redeliver(net::Side::kServer, std::move(packet));
}

void RecordingProxy::on_downstream_data(
    const std::shared_ptr<DownstreamSession>& session, std::string_view bytes) {
  session->parser.push(bytes);
  if (session->parser.failed()) {
    MAHI_WARN("record-proxy") << "request parse failure: "
                              << session->parser.error_message();
    if (const auto c = session->connection.lock()) {
      c->abort();
    }
    return;
  }
  while (session->parser.has_message()) {
    forward_upstream(session, session->parser.pop());
  }
}

void RecordingProxy::forward_upstream(
    const std::shared_ptr<DownstreamSession>& session, http::Request request) {
  session->pipeline.emplace_back();
  const std::size_t slot_number =
      session->flushed + session->pipeline.size() - 1;
  const net::Address origin = session->original_destination;

  auto& upstream = upstream_for(origin);
  http::Request upstream_request = request;  // relayed verbatim
  upstream.fetch(
      std::move(upstream_request),
      [this, session, slot_number, origin, request](http::Response response) {
        // Record the pair exactly as seen on the wire.
        RecordedExchange exchange;
        exchange.request = request;
        exchange.response = response;
        exchange.server_address = origin;
        exchange.scheme = origin.port == 443 ? "https" : "http";
        exchange.recorded_at = inner_.loop().now();
        store_.add(std::move(exchange));
        ++recorded_;

        // Earlier slots may already have flushed off the front.
        MAHI_ASSERT(slot_number >= session->flushed);
        auto& slot = session->pipeline.at(slot_number - session->flushed);
        slot.close_after = !response.keep_alive();
        slot.response = std::move(response);
        flush_ready_responses(session);
      });
}

void RecordingProxy::flush_ready_responses(
    const std::shared_ptr<DownstreamSession>& session) {
  const auto connection = session->connection.lock();
  while (!session->pipeline.empty() &&
         session->pipeline.front().response.has_value()) {
    auto slot = std::move(session->pipeline.front());
    session->pipeline.pop_front();
    ++session->flushed;
    if (!connection) {
      continue;  // application went away; recording already happened
    }
    connection->send(http::to_framed_bytes(*slot.response));
    if (slot.close_after) {
      connection->close();
    }
  }
}

net::HttpClientConnection& RecordingProxy::upstream_for(
    const net::Address& origin) {
  auto& pool = upstreams_[origin];
  // Reuse the first live idle connection; otherwise open a new one.
  for (auto& connection : pool.connections) {
    if (connection->alive() && connection->idle()) {
      return *connection;
    }
  }
  pool.connections.push_back(std::make_unique<net::HttpClientConnection>(
      outer_, origin, [this, origin](const std::string& reason) {
        ++failures_;
        MAHI_WARN("record-proxy")
            << "upstream to " << origin.to_string() << " failed: " << reason;
      }));
  return *pool.connections.back();
}

}  // namespace mahimahi::record
