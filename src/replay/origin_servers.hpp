#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/dns.hpp"
#include "net/http_session.hpp"
#include "net/mux.hpp"
#include "replay/matcher.hpp"

namespace mahimahi::replay {

/// ReplayShell's server farm.
///
/// Multi-origin mode (the paper's contribution): one web server per
/// distinct (IP, port) pair seen while recording, each bound to the same
/// address as its recorded counterpart, each able to serve the *entire*
/// recorded corpus through the Matcher. DNS maps every recorded hostname
/// to its recorded IP.
///
/// Single-server mode (the paper's Table 2 / Figure 3 ablation): all
/// content served from one IP; DNS maps every hostname to it.
class OriginServerSet {
 public:
  struct Options {
    bool single_server{false};
    /// Address used in single-server mode (one listener per recorded port).
    net::Ipv4 single_server_ip{net::Ipv4{10, 200, 0, 1}};
    /// Per-request latency: Apache dispatch + CGI matcher run.
    Microseconds processing_delay{1'500};
    /// Per-Apache-instance prefork pool: a freshly spawned server has a
    /// few spare workers and grows the pool at a bounded rate; keep-alive
    /// connections hold workers. Multi-origin replay sees at most the
    /// browser's six connections per instance and never starves; the
    /// single-server ablation funnels every connection into one cold pool
    /// — the mechanism behind Table 2 and Figure 3.
    /// Calibrated against the paper's Table 2 (the sweep behind it is
    /// experiments/paper/ablation.mx): Apache prefork starts ~3 ready
    /// processes and grows the pool slowly.
    net::WorkerPool worker_pool{.initial_workers = 3,
                                .max_workers = 256,
                                .spawn_interval = 27'000};
    /// Speak the SPDY-like multiplexed protocol instead of HTTP/1.1 —
    /// pair with web::AppProtocol::kMultiplexed on the browser. With one
    /// connection per client the prefork pool is irrelevant and not
    /// applied.
    bool multiplexed{false};
    /// Transport knobs for every origin's accepted connections. The
    /// congestion controller named here shapes the downlink (response
    /// bytes) — the side that dominates page-load time.
    net::TcpConnection::Config tcp{};
    /// Per-origin controller fleet (ROADMAP's mixed-CC axis): when
    /// non-empty, origin server j — in spawn order, which follows
    /// RecordStore::distinct_servers()' sorted (IP, port) order and is
    /// therefore deterministic — serves responses under
    /// cc_fleet[j % size()] instead of tcp.congestion_control.
    std::vector<std::string> cc_fleet;
    /// Origin-fault plan: when active, every spawned server consults it
    /// per request (crash mid-response / stall / slow-start), keyed by the
    /// server's deterministic spawn index so origins fail independently.
    fault::FaultPlan fault{};
  };

  OriginServerSet(net::Fabric& fabric, const record::RecordStore& store,
                  Options options);
  OriginServerSet(net::Fabric& fabric, const record::RecordStore& store)
      : OriginServerSet(fabric, store, Options{}) {}

  /// Hostname bindings ReplayShell installs in the namespace's DNS.
  [[nodiscard]] const net::DnsTable& dns_table() const { return dns_; }

  /// Number of web servers spawned (paper: one per recorded IP/port).
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }

  [[nodiscard]] std::uint64_t requests_served() const;
  [[nodiscard]] std::uint64_t connections_accepted() const;

  /// Controller each spawned server serves under, in spawn order —
  /// introspection for tests and the experiment report (mixed fleets).
  [[nodiscard]] const std::vector<std::string>& server_controllers() const {
    return server_controllers_;
  }

  [[nodiscard]] const Matcher& matcher() const { return matcher_; }

 private:
  Matcher matcher_;
  net::DnsTable dns_;
  /// HTTP/1.1 or mux servers, in spawn order.
  std::vector<std::unique_ptr<net::OriginServer>> servers_;
  std::vector<std::string> server_controllers_;
};

}  // namespace mahimahi::replay
