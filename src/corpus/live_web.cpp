#include "corpus/live_web.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

namespace mahimahi::corpus {

namespace {

/// One multiplicative draw models a load's overall network weather.
double draw_weather(const LiveWebConfig& config, util::Rng& rng) {
  return config.variability_sigma > 0
             ? rng.lognormal(0.0, config.variability_sigma)
             : 1.0;
}

Microseconds weathered_primary(const LiveWebConfig& config, double weather) {
  return static_cast<Microseconds>(
      static_cast<double>(config.primary_one_way) * weather);
}

}  // namespace

Microseconds LiveWeb::primary_one_way(const LiveWebConfig& config,
                                      util::Rng& rng) {
  return weathered_primary(config, draw_weather(config, rng));
}

LiveWeb::LiveWeb(net::Fabric& fabric, const GeneratedSite& site,
                 LiveWebConfig config, util::Rng rng) {
  const double weather = draw_weather(config, rng);

  // Group the site's objects by hostname; one origin server per host.
  std::unordered_map<std::string, std::vector<const GeneratedObject*>> by_host;
  for (const auto& object : site.objects) {
    by_host[object.url.host].push_back(&object);
  }

  for (std::size_t h = 0; h < site.hostnames.size(); ++h) {
    const std::string& host = site.hostnames[h];
    const net::Ipv4 ip = fabric.allocate_server_ip();
    const net::Address address{ip, 80};
    dns_.add(host, ip);

    // Propagation: the primary origin gets its configured delay; others
    // draw from the lognormal (CDNs often closer than the primary).
    Microseconds one_way;
    if (h == 0) {
      one_way = weathered_primary(config, weather);
      primary_one_way_ = one_way;
    } else {
      const double draw = static_cast<double>(config.other_median_one_way) *
                          rng.lognormal(0.0, config.other_sigma) * weather;
      one_way = static_cast<Microseconds>(draw);
    }
    one_way = std::clamp(one_way, config.min_one_way, config.max_one_way);
    fabric.set_server_delay(ip, one_way);

    // Build this origin's content table (exact target match).
    auto content = std::make_shared<
        std::unordered_map<std::string, const GeneratedObject*>>();
    if (const auto it = by_host.find(host); it != by_host.end()) {
      for (const auto* object : it->second) {
        content->emplace(object->url.request_target(), object);
      }
    }
    const Microseconds think = config.processing_mean > 0
                                   ? static_cast<Microseconds>(
                                         rng.exponential(1.0 / static_cast<double>(
                                                                   config.processing_mean)))
                                   : 0;
    servers_.push_back(std::make_unique<net::HttpServer>(
        fabric, address,
        [content](const http::Request& request) {
          const auto it = content->find(request.target);
          if (it == content->end()) {
            return http::to_framed_bytes(http::make_not_found(request.target));
          }
          http::Response response;
          response.status = 200;
          response.reason = "OK";
          response.headers.add(
              "Content-Type",
              std::string{http::content_type_for_kind(it->second->kind)});
          response.headers.add("Server", "origin/1.0");
          response.body = it->second->body;
          return http::to_framed_bytes(response);
        },
        think, config.tcp));
  }

  // The DNS server lives near the client's resolver (low-ish delay).
  const net::Ipv4 dns_ip = fabric.allocate_server_ip();
  fabric.set_server_delay(dns_ip, std::min<Microseconds>(
                                      primary_one_way_, 5'000));
  dns_server_ = std::make_unique<net::DnsServer>(
      fabric, net::Address{dns_ip, net::kDnsPort}, dns_);
}

std::uint64_t LiveWeb::requests_served() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->requests_served();
  }
  return total;
}

}  // namespace mahimahi::corpus
