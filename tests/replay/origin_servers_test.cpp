// OriginServerSet tests, including a full record -> replay round trip at
// the HTTP level (the browser-level loop lives in tests/integration).

#include "replay/origin_servers.hpp"

#include <gtest/gtest.h>

#include "net/event_loop.hpp"
#include "record/proxy.hpp"

namespace mahimahi::replay {
namespace {

const net::Address kA{net::Ipv4{93, 184, 216, 34}, 80};
const net::Address kB{net::Ipv4{151, 101, 1, 1}, 80};
const net::Address kB443{net::Ipv4{151, 101, 1, 1}, 443};

record::RecordedExchange make_exchange(std::string_view url, net::Address server,
                                       std::string body) {
  record::RecordedExchange exchange;
  exchange.request = http::make_get(url);
  exchange.response = http::make_ok(std::move(body));
  exchange.server_address = server;
  return exchange;
}

record::RecordStore three_origin_store() {
  record::RecordStore store;
  store.add(make_exchange("http://www.site.test/", kA, "root-html"));
  store.add(make_exchange("http://cdn.site.test/a.js", kB, "js-content"));
  store.add(make_exchange("https://cdn.site.test/s.css", kB443, "css-content"));
  return store;
}

TEST(OriginServerSet, MultiOriginSpawnsOneServerPerRecordedAddress) {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet servers{fabric, store};
  EXPECT_EQ(servers.server_count(), 3u);  // (ip,port) pairs
  // DNS: every recorded hostname resolves to its recorded IP.
  EXPECT_EQ(servers.dns_table().lookup("www.site.test"), kA.ip);
  EXPECT_EQ(servers.dns_table().lookup("cdn.site.test"), kB.ip);
}

TEST(OriginServerSet, HomogeneousFleetDefaultsToRegistryDefault) {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet servers{fabric, store};
  ASSERT_EQ(servers.server_controllers().size(), 3u);
  for (const auto& name : servers.server_controllers()) {
    EXPECT_EQ(name, "reno");
  }
}

TEST(OriginServerSet, CcFleetAssignsControllersBySpawnOrder) {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet::Options options;
  options.cc_fleet = {"bbr", "cubic"};
  OriginServerSet servers{fabric, store, options};
  // Spawn order follows distinct_servers()' sorted (ip, port) order:
  // 93.184.216.34:80, 151.101.1.1:80, 151.101.1.1:443 — so the two-entry
  // fleet wraps around on the third server.
  ASSERT_EQ(servers.server_controllers().size(), 3u);
  EXPECT_EQ(servers.server_controllers()[0], "bbr");
  EXPECT_EQ(servers.server_controllers()[1], "cubic");
  EXPECT_EQ(servers.server_controllers()[2], "bbr");
}

TEST(OriginServerSet, ServersAnswerWithRecordedBytes) {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet servers{fabric, store};

  net::HttpClientConnection client{fabric, kA};
  std::optional<http::Response> got;
  client.fetch(http::make_get("http://www.site.test/"),
               [&](http::Response r) { got = std::move(r); });
  loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "root-html");
}

TEST(OriginServerSet, EveryServerServesWholeCorpus) {
  // The paper: "each of which can access the entire recorded content".
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet servers{fabric, store};

  // Ask server A for content recorded from server B's hostname.
  net::HttpClientConnection client{fabric, kA};
  std::optional<http::Response> got;
  client.fetch(http::make_get("http://cdn.site.test/a.js"),
               [&](http::Response r) { got = std::move(r); });
  loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "js-content");
}

TEST(OriginServerSet, UnmatchedRequestGets404) {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet servers{fabric, store};
  net::HttpClientConnection client{fabric, kA};
  std::optional<http::Response> got;
  client.fetch(http::make_get("http://www.site.test/not-recorded"),
               [&](http::Response r) { got = std::move(r); });
  loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 404);
}

TEST(OriginServerSet, SingleServerModeCollapsesTopology) {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet::Options options;
  options.single_server = true;
  OriginServerSet servers{fabric, store, options};
  // Recorded ports were {80, 443}: one listener per port, same IP.
  EXPECT_EQ(servers.server_count(), 2u);
  EXPECT_EQ(servers.dns_table().lookup("www.site.test"),
            options.single_server_ip);
  EXPECT_EQ(servers.dns_table().lookup("cdn.site.test"),
            options.single_server_ip);

  net::HttpClientConnection client{
      fabric, net::Address{options.single_server_ip, 80}};
  std::optional<http::Response> got;
  client.fetch(http::make_get("http://cdn.site.test/a.js"),
               [&](http::Response r) { got = std::move(r); });
  loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "js-content");
}

TEST(OriginServerSet, RecordThenReplayRoundTrip) {
  // Record through the proxy, then replay from the store: the replayed
  // response must be byte-identical to the live one.
  net::EventLoop loop;
  record::RecordStore store;
  {
    net::Fabric inner{loop};
    net::Fabric outer{loop};
    record::RecordingProxy proxy{inner, outer, store};
    net::HttpServer origin{outer, kA, [](const http::Request& r) {
                             http::Response resp =
                                 http::make_ok("live body for " + r.target);
                             resp.headers.add("X-Origin", "the-real-one");
                             return http::to_framed_bytes(resp);
                           }};
    net::HttpClientConnection app{inner, kA};
    app.fetch(http::make_get("http://www.site.test/page?v=7"),
              [](http::Response) {});
    loop.run();
  }
  ASSERT_EQ(store.size(), 1u);

  net::Fabric replay_fabric{loop};
  OriginServerSet servers{replay_fabric, store};
  net::HttpClientConnection client{replay_fabric, kA};
  std::optional<http::Response> got;
  client.fetch(http::make_get("http://www.site.test/page?v=7"),
               [&](http::Response r) { got = std::move(r); });
  loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "live body for /page?v=7");
  EXPECT_EQ(got->headers.get("X-Origin"), "the-real-one");
}

TEST(OriginServerSet, RequestCountersAggregate) {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  const auto store = three_origin_store();
  OriginServerSet servers{fabric, store};
  net::HttpClientConnection c1{fabric, kA};
  net::HttpClientConnection c2{fabric, kB};
  c1.fetch(http::make_get("http://www.site.test/"), [](http::Response) {});
  c2.fetch(http::make_get("http://cdn.site.test/a.js"), [](http::Response) {});
  loop.run();
  EXPECT_EQ(servers.requests_served(), 2u);
  EXPECT_EQ(servers.connections_accepted(), 2u);
}

}  // namespace
}  // namespace mahimahi::replay
