#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/http_session.hpp"
#include "net/tcp.hpp"
#include "record/store.hpp"

namespace mahimahi::record {

/// RecordShell's man-in-the-middle proxy.
///
/// Sits between an inner fabric (where the application runs) and an outer
/// fabric (the live web). On the inner fabric it transparently intercepts
/// every TCP connection regardless of destination address — the analogue
/// of mahimahi's iptables REDIRECT — terminates it with an HTTP parser,
/// forwards each request upstream over its own connections on the outer
/// fabric, records the request/response pair, and relays the response.
///
/// Both fabrics must share one EventLoop. The application is unmodified:
/// it resolves real names, connects to real addresses, and never learns a
/// proxy exists — the property that makes RecordShell work with any
/// unmodified browser.
class RecordingProxy {
 public:
  RecordingProxy(net::Fabric& inner, net::Fabric& outer, RecordStore& store);
  ~RecordingProxy();

  RecordingProxy(const RecordingProxy&) = delete;
  RecordingProxy& operator=(const RecordingProxy&) = delete;

  [[nodiscard]] std::uint64_t exchanges_recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t upstream_failures() const { return failures_; }

 private:
  /// One intercepted destination address = one lazily-created listener.
  void intercept(net::Packet&& packet);

  /// Per accepted downstream connection.
  struct DownstreamSession;

  void on_downstream_data(const std::shared_ptr<DownstreamSession>& session,
                          std::string_view bytes);
  void forward_upstream(const std::shared_ptr<DownstreamSession>& session,
                        http::Request request);
  void flush_ready_responses(const std::shared_ptr<DownstreamSession>& session);

  /// Idle-connection pool to upstream origins, keyed by origin address.
  net::HttpClientConnection& upstream_for(const net::Address& origin);

  net::Fabric& inner_;
  net::Fabric& outer_;
  RecordStore& store_;
  std::map<net::Address, std::unique_ptr<net::TcpListener>> listeners_;

  struct UpstreamPool {
    std::vector<std::unique_ptr<net::HttpClientConnection>> connections;
  };
  std::map<net::Address, UpstreamPool> upstreams_;

  std::uint64_t recorded_{0};
  std::uint64_t failures_{0};
};

}  // namespace mahimahi::record
