#pragma once

#include <map>
#include <memory>
#include <vector>

#include "corpus/site_generator.hpp"
#include "net/dns.hpp"
#include "net/http_session.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace mahimahi::corpus {

/// How the simulated Internet places a site's origins relative to the
/// client. The crucial property for Figure 3: origins have heterogeneous
/// RTTs, and CDNs are often *closer* than the primary origin — which is
/// why replay (which pins every origin at the primary's min RTT) comes out
/// slightly slower than the live web.
struct LiveWebConfig {
  /// Primary origin one-way delay (e.g. www.nytimes.com from Boston).
  Microseconds primary_one_way{15'000};  // 30 ms RTT
  /// Third-party origins draw a lognormal one-way delay with this median;
  /// many land below the primary (CDN edges).
  Microseconds other_median_one_way{5'000};
  double other_sigma{0.75};
  Microseconds min_one_way{1'500};
  Microseconds max_one_way{60'000};
  /// Per-request server think time: mean of an exponential.
  Microseconds processing_mean{2'500};
  /// Load-to-load variability of the above (cross traffic, CDN churn):
  /// multiplies every delay, drawn once per LiveWeb instantiation.
  double variability_sigma{0.18};
  /// Transport knobs for every live-web origin's accepted connections
  /// (notably the congestion controller shaping response bytes).
  /// A one-entry core::SessionConfig::controllers list overrides the name
  /// here.
  net::TcpConnection::Config tcp{};
};

/// The "actual web" substrate: origin servers for one generated site,
/// each behind its own propagation delay, plus a DNS server that resolves
/// the site's hostnames to their "real" addresses. Fresh instantiations
/// (one per measured page load) re-draw delay variability, modelling the
/// churn a real client sees across repeated loads.
class LiveWeb {
 public:
  LiveWeb(net::Fabric& fabric, const GeneratedSite& site, LiveWebConfig config,
          util::Rng rng);

  /// The primary origin's one-way delay an instantiation seeded with
  /// `rng` gets: its weather draw — the first draw the constructor makes
  /// — applied to config.primary_one_way. Lets a caller learn a load's
  /// delay without building its servers.
  static Microseconds primary_one_way(const LiveWebConfig& config,
                                      util::Rng& rng);

  /// DNS server address to hand to clients in this namespace.
  [[nodiscard]] net::Address dns_server_address() const {
    return dns_server_->address();
  }
  [[nodiscard]] const net::DnsTable& dns_table() const { return dns_; }

  /// The primary origin's round-trip time in this instantiation — what the
  /// paper measures with ping and feeds to DelayShell for Figure 3.
  [[nodiscard]] Microseconds primary_rtt() const { return 2 * primary_one_way_; }

  [[nodiscard]] std::size_t origin_count() const { return servers_.size(); }
  [[nodiscard]] std::uint64_t requests_served() const;

 private:
  net::DnsTable dns_;
  std::unique_ptr<net::DnsServer> dns_server_;
  std::vector<std::unique_ptr<net::HttpServer>> servers_;
  Microseconds primary_one_way_{0};
};

}  // namespace mahimahi::corpus
