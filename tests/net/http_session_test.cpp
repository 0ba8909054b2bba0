#include "net/http_session.hpp"

#include <gtest/gtest.h>

#include "net/sim_fixture.hpp"
#include "trace/synthesis.hpp"

namespace mahimahi::net {
namespace {

using testing::SimNet;
using namespace mahimahi::literals;

const Address kServerAddr{Ipv4{10, 0, 0, 1}, 80};

std::string echo_handler(const http::Request& request) {
  http::Response response;
  response.status = 200;
  response.reason = "OK";
  response.headers.add("Content-Type", "text/plain");
  response.body = "echo:" + request.target;
  return http::to_framed_bytes(response);
}

TEST(HttpSession, SimpleFetch) {
  SimNet net;
  net.add_delay(10_ms);
  HttpServer server{net.fabric, kServerAddr, echo_handler};
  HttpClientConnection client{net.fabric, kServerAddr};

  std::optional<http::Response> got;
  client.fetch(http::make_get("http://10.0.0.1/index.html"),
               [&](http::Response r) { got = std::move(r); });
  net.loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "echo:/index.html");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpSession, KeepAliveReusesOneConnection) {
  SimNet net;
  net.add_delay(5_ms);
  HttpServer server{net.fabric, kServerAddr, echo_handler};
  HttpClientConnection client{net.fabric, kServerAddr};

  int responses = 0;
  for (int i = 0; i < 5; ++i) {
    client.fetch(http::make_get("http://10.0.0.1/obj" + std::to_string(i)),
                 [&](http::Response r) {
                   EXPECT_EQ(r.status, 200);
                   ++responses;
                 });
  }
  net.loop.run();
  EXPECT_EQ(responses, 5);
  EXPECT_EQ(server.total_accepted(), 1u);  // one TCP connection
}

TEST(HttpSession, ResponsesArriveInRequestOrder) {
  SimNet net;
  HttpServer server{net.fabric, kServerAddr, echo_handler};
  HttpClientConnection client{net.fabric, kServerAddr};
  std::vector<std::string> bodies;
  for (int i = 0; i < 4; ++i) {
    client.fetch(http::make_get("http://10.0.0.1/o" + std::to_string(i)),
                 [&](http::Response r) { bodies.push_back(r.body); });
  }
  net.loop.run();
  ASSERT_EQ(bodies.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bodies[static_cast<std::size_t>(i)],
              "echo:/o" + std::to_string(i));
  }
}

TEST(HttpSession, ServerProcessingDelayDefersResponse) {
  SimNet net;
  HttpServer server{net.fabric, kServerAddr, echo_handler,
                    /*processing_delay=*/40_ms};
  HttpClientConnection client{net.fabric, kServerAddr};
  Microseconds done_at = 0;
  client.fetch(http::make_get("http://10.0.0.1/x"),
               [&](http::Response) { done_at = net.loop.now(); });
  net.loop.run();
  EXPECT_GE(done_at, 40_ms);
}

TEST(HttpSession, LargeResponseOverSlowLink) {
  SimNet net;
  net.add_link(trace::constant_rate(10e6, 1_s), trace::constant_rate(1e6, 2_s));
  const std::string big(250'000, 'B');  // 2 Mbit
  HttpServer server{net.fabric, kServerAddr,
                    [&](const http::Request&) {
                      return http::to_framed_bytes(http::make_ok(big));
                    }};
  HttpClientConnection client{net.fabric, kServerAddr};
  std::optional<http::Response> got;
  Microseconds done_at = 0;
  client.fetch(http::make_get("http://10.0.0.1/big"), [&](http::Response r) {
    got = std::move(r);
    done_at = net.loop.now();
  });
  net.loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body.size(), big.size());
  EXPECT_GT(done_at, 2_s);  // 2 Mbit over 1 Mbit/s
  EXPECT_LT(done_at, 3_s);
}

TEST(HttpSession, ConnectionCloseResponseEndsConnection) {
  SimNet net;
  HttpServer server{net.fabric, kServerAddr, [](const http::Request&) {
                      http::Response r = http::make_ok("done");
                      r.headers.add("Connection", "close");
                      return http::to_framed_bytes(r);
                    }};
  HttpClientConnection client{net.fabric, kServerAddr};
  std::optional<http::Response> got;
  client.fetch(http::make_get("http://10.0.0.1/"),
               [&](http::Response r) { got = std::move(r); });
  net.loop.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(client.alive());
}

TEST(HttpSession, ErrorCallbackOnQueuedRequestsWhenServerCloses) {
  SimNet net;
  HttpServer server{net.fabric, kServerAddr, [](const http::Request&) {
                      http::Response r = http::make_ok("one");
                      r.headers.add("Connection", "close");
                      return http::to_framed_bytes(r);
                    }};
  std::string error;
  HttpClientConnection client{net.fabric, kServerAddr,
                              [&](const std::string& reason) { error = reason; }};
  int ok = 0;
  client.fetch(http::make_get("http://10.0.0.1/a"),
               [&](http::Response) { ++ok; });
  client.fetch(http::make_get("http://10.0.0.1/b"),
               [&](http::Response) { ++ok; });
  net.loop.run();
  EXPECT_EQ(ok, 1);
  EXPECT_FALSE(error.empty());
}

TEST(HttpSession, CloseWhenIdleSendsFin) {
  SimNet net;
  HttpServer server{net.fabric, kServerAddr, echo_handler};
  HttpClientConnection client{net.fabric, kServerAddr};
  bool done = false;
  client.fetch(http::make_get("http://10.0.0.1/x"),
               [&](http::Response) { done = true; });
  client.close_when_idle();
  net.loop.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(client.alive());
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(HttpSession, PostBodyReachesHandler) {
  SimNet net;
  std::string seen_body;
  HttpServer server{net.fabric, kServerAddr, [&](const http::Request& r) {
                      seen_body = r.body;
                      return http::to_framed_bytes(http::make_ok("ok"));
                    }};
  HttpClientConnection client{net.fabric, kServerAddr};
  http::Request post;
  post.method = http::Method::kPost;
  post.target = "/submit";
  post.headers.add("Host", "10.0.0.1");
  post.body = std::string(5000, 'p');
  bool done = false;
  client.fetch(std::move(post), [&](http::Response) { done = true; });
  net.loop.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(seen_body, std::string(5000, 'p'));
}

TEST(HttpSession, ManyParallelConnectionsAreIsolated) {
  SimNet net;
  net.add_delay(5_ms);
  HttpServer server{net.fabric, kServerAddr, echo_handler};
  std::vector<std::unique_ptr<HttpClientConnection>> clients;
  int responses = 0;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(
        std::make_unique<HttpClientConnection>(net.fabric, kServerAddr));
    clients.back()->fetch(
        http::make_get("http://10.0.0.1/c" + std::to_string(i)),
        [&responses](http::Response r) {
          EXPECT_EQ(r.status, 200);
          ++responses;
        });
  }
  net.loop.run();
  EXPECT_EQ(responses, 20);
  EXPECT_EQ(server.total_accepted(), 20u);
}

}  // namespace
}  // namespace mahimahi::net
