// "Beyond browsers" (paper §4): Mahimahi replays *any* application that
// speaks HTTP, not just page loads. Here the application is a REST API
// client — the kind of traffic a mobile-app emulator generates — doing a
// login -> list -> detail -> POST sequence. We record it once against the
// live service, then replay the session under two cellular profiles.

#include <cstdio>

#include "core/shells.hpp"
#include "net/dns.hpp"
#include "record/proxy.hpp"
#include "replay/origin_servers.hpp"
#include "trace/synthesis.hpp"

using namespace mahimahi;
using namespace mahimahi::core;
using namespace mahimahi::literals;

namespace {

/// The "mobile app": four dependent API calls over one keep-alive
/// connection; reports total session time.
void run_api_session(net::Fabric& fabric, net::Address service,
                     const char* label) {
  auto client = std::make_shared<net::HttpClientConnection>(fabric, service);
  auto t_done = std::make_shared<Microseconds>(0);
  net::EventLoop& loop = fabric.loop();

  http::Request login;
  login.method = http::Method::kPost;
  login.target = "/api/login";
  login.headers.add("Host", "api.service.test");
  login.body = R"({"user":"demo","pass":"demo"})";

  client->fetch(std::move(login), [client, &loop, t_done](http::Response r) {
    std::printf("    POST /api/login       -> %d (%zu B)\n", r.status,
                r.body.size());
    client->fetch(http::make_get("http://api.service.test/api/items"),
                  [client, &loop, t_done](http::Response r2) {
                    std::printf("    GET  /api/items        -> %d (%zu B)\n",
                                r2.status, r2.body.size());
                    client->fetch(
                        http::make_get("http://api.service.test/api/items/17"),
                        [client, &loop, t_done](http::Response r3) {
                          std::printf(
                              "    GET  /api/items/17     -> %d (%zu B)\n",
                              r3.status, r3.body.size());
                          http::Request update;
                          update.method = http::Method::kPost;
                          update.target = "/api/items/17/read";
                          update.headers.add("Host", "api.service.test");
                          update.body = R"({"read":true})";
                          client->fetch(std::move(update),
                                        [&loop, t_done](http::Response r4) {
                                          std::printf(
                                              "    POST /api/items/17/read"
                                              " -> %d\n",
                                              r4.status);
                                          *t_done = loop.now();
                                        });
                        });
                  });
  });
  const Microseconds start = loop.now();
  loop.run();
  std::printf("  %s: session time %.0f ms\n\n", label,
              to_ms(*t_done - start));
}

}  // namespace

int main() {
  const net::Address service_addr{net::Ipv4{203, 0, 113, 10}, 80};

  // --- record: app -> RecordShell proxy -> live API service ------------
  net::EventLoop record_loop;
  net::Fabric inner{record_loop};
  net::Fabric outer{record_loop};
  record::RecordStore store;
  record::RecordingProxy proxy{inner, outer, store};

  const auto api = [](const http::Request& request) {
    if (request.target == "/api/login") {
      return http::make_ok(R"({"token":"abc123"})", "application/json");
    }
    if (request.target == "/api/items") {
      std::string items = "{\"items\":[";
      for (int i = 0; i < 40; ++i) {
        if (i > 0) {
          items += ',';
        }
        items += std::to_string(i);
      }
      return http::make_ok(items + "]}", "application/json");
    }
    if (request.target == "/api/items/17") {
      return http::make_ok(std::string(2000, 'x'), "application/json");
    }
    if (request.target == "/api/items/17/read") {
      return http::make_ok(R"({"ok":true})", "application/json");
    }
    return http::make_not_found(request.target);
  };
  net::HttpServer service{
      outer, service_addr,
      [api](const http::Request& request) {
        return http::to_framed_bytes(api(request));
      },
      /*processing_delay=*/3'000};

  std::printf("recording the API session through RecordShell...\n");
  run_api_session(inner, service_addr, "record (live service)");
  std::printf("recorded %zu exchanges\n\n", store.size());

  // --- replay under emulated cellular networks --------------------------
  struct Profile {
    const char* label;
    double mbps;
    Microseconds one_way;
  };
  for (const Profile profile : {Profile{"LTE-ish (12 Mbit/s, 40 ms RTT)", 12, 20_ms},
                                Profile{"3G-ish (1 Mbit/s, 150 ms RTT)", 1, 75_ms}}) {
    net::EventLoop loop;
    net::Fabric fabric{loop};
    replay::OriginServerSet servers{fabric, store};
    HostProfile host;
    util::Rng rng{1};
    std::vector<ShellSpec> shells = {
        DelayShellSpec{profile.one_way},
        LinkShellSpec::constant_rate_mbps(profile.mbps, profile.mbps)};
    apply_shells(fabric, shells, host, rng);
    std::printf("replaying under %s:\n", profile.label);
    run_api_session(fabric, service_addr, profile.label);
  }
  std::printf("Same bytes, same sequence, any network — no browser involved.\n");
  return 0;
}
