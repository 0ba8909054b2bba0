// RecordingProxy integration tests: an application on an inner fabric, the
// "live web" on an outer fabric, the proxy invisibly in between.

#include "record/proxy.hpp"

#include <gtest/gtest.h>

#include "net/dns.hpp"
#include "net/element.hpp"
#include "util/time.hpp"

namespace mahimahi::record {
namespace {

using namespace mahimahi::literals;

const net::Address kOriginA{net::Ipv4{93, 184, 216, 34}, 80};
const net::Address kOriginB{net::Ipv4{151, 101, 1, 1}, 443};

struct ProxyHarness {
  net::EventLoop loop;
  net::Fabric inner{loop};
  net::Fabric outer{loop};
  RecordStore store;
  RecordingProxy proxy{inner, outer, store};
  std::vector<std::unique_ptr<net::HttpServer>> origins;

  ProxyHarness() { loop.set_event_limit(10'000'000); }

  void add_origin(const net::Address& address, std::string label) {
    origins.push_back(std::make_unique<net::HttpServer>(
        outer, address, [label = std::move(label)](const http::Request& r) {
          return http::to_framed_bytes(
              http::make_ok("from " + label + " for " + r.target));
        }));
  }
};

TEST(RecordingProxy, InterceptsAndRelaysTransparently) {
  ProxyHarness h;
  h.add_origin(kOriginA, "A");

  // The application connects to the *real* origin address on the inner
  // fabric; no proxy configuration anywhere.
  net::HttpClientConnection app{h.inner, kOriginA};
  std::optional<http::Response> got;
  app.fetch(http::make_get("http://www.example.com/index.html"),
            [&](http::Response r) { got = std::move(r); });
  h.loop.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "from A for /index.html");
}

TEST(RecordingProxy, RecordsRequestResponsePair) {
  ProxyHarness h;
  h.add_origin(kOriginA, "A");
  net::HttpClientConnection app{h.inner, kOriginA};
  app.fetch(http::make_get("http://www.example.com/page?q=1"),
            [](http::Response) {});
  h.loop.run();

  ASSERT_EQ(h.store.size(), 1u);
  const RecordedExchange& exchange = h.store.exchanges()[0];
  EXPECT_EQ(exchange.host(), "www.example.com");
  EXPECT_EQ(exchange.request.target, "/page?q=1");
  EXPECT_EQ(exchange.server_address, kOriginA);
  EXPECT_EQ(exchange.scheme, "http");
  EXPECT_EQ(exchange.response.body, "from A for /page?q=1");
  EXPECT_EQ(h.proxy.exchanges_recorded(), 1u);
}

TEST(RecordingProxy, Port443RecordsHttpsScheme) {
  ProxyHarness h;
  h.add_origin(kOriginB, "B");
  net::HttpClientConnection app{h.inner, kOriginB};
  app.fetch(http::make_get("https://secure.example.com/login"),
            [](http::Response) {});
  h.loop.run();
  ASSERT_EQ(h.store.size(), 1u);
  EXPECT_EQ(h.store.exchanges()[0].scheme, "https");
}

TEST(RecordingProxy, KeepAliveConnectionRecordsEveryRequest) {
  ProxyHarness h;
  h.add_origin(kOriginA, "A");
  net::HttpClientConnection app{h.inner, kOriginA};
  int responses = 0;
  for (int i = 0; i < 7; ++i) {
    app.fetch(http::make_get("http://www.example.com/obj" + std::to_string(i)),
              [&](http::Response r) {
                EXPECT_EQ(r.status, 200);
                ++responses;
              });
  }
  h.loop.run();
  EXPECT_EQ(responses, 7);
  EXPECT_EQ(h.store.size(), 7u);
  // Recorded in request order.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(h.store.exchanges()[static_cast<std::size_t>(i)].request.target,
              "/obj" + std::to_string(i));
  }
}

TEST(RecordingProxy, MultipleOriginsRecordDistinctServerAddresses) {
  ProxyHarness h;
  h.add_origin(kOriginA, "A");
  h.add_origin(kOriginB, "B");
  net::HttpClientConnection app_a{h.inner, kOriginA};
  net::HttpClientConnection app_b{h.inner, kOriginB};
  app_a.fetch(http::make_get("http://a.example.com/x"), [](http::Response) {});
  app_b.fetch(http::make_get("https://b.example.com/y"), [](http::Response) {});
  h.loop.run();
  ASSERT_EQ(h.store.size(), 2u);
  EXPECT_EQ(h.store.distinct_servers().size(), 2u);
}

TEST(RecordingProxy, ConcurrentAppConnectionsToSameOrigin) {
  ProxyHarness h;
  h.add_origin(kOriginA, "A");
  std::vector<std::unique_ptr<net::HttpClientConnection>> apps;
  int responses = 0;
  for (int i = 0; i < 6; ++i) {
    apps.push_back(std::make_unique<net::HttpClientConnection>(h.inner, kOriginA));
    apps.back()->fetch(
        http::make_get("http://www.example.com/c" + std::to_string(i)),
        [&](http::Response) { ++responses; });
  }
  h.loop.run();
  EXPECT_EQ(responses, 6);
  EXPECT_EQ(h.store.size(), 6u);
}

TEST(RecordingProxy, UpstreamFailureCounted) {
  ProxyHarness h;  // no origins on the outer fabric at all
  net::HttpClientConnection app{h.inner, kOriginA};
  bool failed = false;
  app.fetch(http::make_get("http://www.example.com/"),
            [&](http::Response) { failed = false; });
  // The proxy accepts the inner connection, but its upstream SYN gets no
  // answer; eventually the upstream connection resets.
  h.loop.run();
  EXPECT_GT(h.proxy.upstream_failures(), 0u);
  EXPECT_EQ(h.store.size(), 0u);
  (void)failed;
}

TEST(RecordingProxy, PipelinedRequestsAnswerInOrder) {
  // A raw client pipelines two requests back-to-back on one connection;
  // the proxy's response slots must keep request order even if upstream
  // answers land out of order (exercised by distinct upstream conns).
  ProxyHarness h;
  h.add_origin(kOriginA, "A");
  net::TcpClient raw{h.inner, kOriginA, {}};

  http::ResponseParser parser;
  std::vector<std::string> bodies;
  net::TcpConnection::Callbacks cb;
  raw.connection().set_callbacks(net::TcpConnection::Callbacks{
      .on_data = [&](std::string_view bytes) {
        parser.push(bytes);
        while (parser.has_message()) {
          bodies.push_back(parser.pop().body);
        }
      }});
  parser.notify_request(http::Method::kGet);
  parser.notify_request(http::Method::kGet);

  http::Request first = http::make_get("http://www.example.com/first");
  http::Request second = http::make_get("http://www.example.com/second");
  raw.connection().send(http::to_bytes(first) + http::to_bytes(second));
  h.loop.run();

  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], "from A for /first");
  EXPECT_EQ(bodies[1], "from A for /second");
  EXPECT_EQ(h.store.size(), 2u);
}

TEST(RecordingProxy, InnerTrafficTraversesInnerChainOnly) {
  ProxyHarness h;
  // Meter both fabrics: the app's packets must appear on the inner chain,
  // the proxy's upstream packets on the outer chain.
  auto inner_meter = std::make_unique<net::MeterBox>();
  auto outer_meter = std::make_unique<net::MeterBox>();
  net::MeterBox& im = *inner_meter;
  net::MeterBox& om = *outer_meter;
  h.inner.chain().push_back(std::move(inner_meter));
  h.outer.chain().push_back(std::move(outer_meter));
  h.add_origin(kOriginA, "A");
  net::HttpClientConnection app{h.inner, kOriginA};
  app.fetch(http::make_get("http://www.example.com/"), [](http::Response) {});
  h.loop.run();
  EXPECT_GT(im.packets(net::Direction::kUplink), 0u);
  EXPECT_GT(om.packets(net::Direction::kUplink), 0u);
}

}  // namespace
}  // namespace mahimahi::record
