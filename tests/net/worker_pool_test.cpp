// HttpServer prefork worker-pool semantics: connection-held workers,
// bounded spawn rate, FIFO granting — the mechanism behind the paper's
// single-server replay penalty.

#include <gtest/gtest.h>

#include "net/http_session.hpp"
#include "net/sim_fixture.hpp"

namespace mahimahi::net {
namespace {

using testing::SimNet;
using namespace mahimahi::literals;

const Address kServerAddr{Ipv4{10, 0, 0, 1}, 80};

std::string tiny_handler(const http::Request&) {
  return http::to_framed_bytes(http::make_ok("ok", "text/plain"));
}

struct PoolHarness {
  SimNet net;
  HttpServer server;

  explicit PoolHarness(const WorkerPool& pool)
      : server{net.fabric, kServerAddr, tiny_handler} {
    server.set_worker_pool(pool);
  }

  /// Open `n` connections at t=0, each sending one request; returns the
  /// response completion time of each, in request order.
  std::vector<Microseconds> run_concurrent(int n) {
    std::vector<std::unique_ptr<HttpClientConnection>> clients;
    std::vector<Microseconds> done(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
      clients.push_back(
          std::make_unique<HttpClientConnection>(net.fabric, kServerAddr));
      clients.back()->fetch(
          http::make_get("http://10.0.0.1/obj" + std::to_string(i)),
          [this, &done, i](http::Response r) {
            EXPECT_EQ(r.status, 200);
            done[static_cast<std::size_t>(i)] = net.loop.now();
          });
    }
    net.loop.run();
    return done;
  }
};

TEST(WorkerPool, DefaultPoolNeverStarves) {
  PoolHarness h{WorkerPool{}};
  const auto done = h.run_concurrent(50);
  for (const auto t : done) {
    ASSERT_GE(t, 0);
    EXPECT_LT(t, 10_ms);  // no spawn waits
  }
  EXPECT_EQ(h.server.worker_waits(), 0u);
}

TEST(WorkerPool, ConnectionsBeyondInitialWorkersWait) {
  PoolHarness h{WorkerPool{.initial_workers = 2,
                           .max_workers = 64,
                           .spawn_interval = 10'000}};
  const auto done = h.run_concurrent(6);
  // First two served immediately; each further connection waits one more
  // spawn interval (workers are held by live keep-alive connections).
  EXPECT_LT(done[0], 5_ms);
  EXPECT_LT(done[1], 5_ms);
  for (int i = 2; i < 6; ++i) {
    EXPECT_GE(done[static_cast<std::size_t>(i)],
              (i - 1) * 10'000)  // spawned one-by-one
        << "conn " << i;
  }
  EXPECT_EQ(h.server.worker_waits(), 4u);
}

TEST(WorkerPool, GrantingIsFifo) {
  PoolHarness h{WorkerPool{.initial_workers = 1,
                           .max_workers = 64,
                           .spawn_interval = 5'000}};
  const auto done = h.run_concurrent(5);
  for (int i = 1; i < 5; ++i) {
    EXPECT_GE(done[static_cast<std::size_t>(i)],
              done[static_cast<std::size_t>(i - 1)]);
  }
}

TEST(WorkerPool, ClosedConnectionReleasesWorkerImmediately) {
  SimNet net;
  HttpServer server{net.fabric, kServerAddr, [](const http::Request&) {
                      http::Response r = http::make_ok("bye");
                      r.headers.add("Connection", "close");
                      return http::to_framed_bytes(r);
                    }};
  server.set_worker_pool(WorkerPool{.initial_workers = 1,
                                    .max_workers = 1,  // no spawning at all
                                    .spawn_interval = 1'000'000});
  // Sequential connections: each closes after its response, freeing the
  // single worker for the next. All must complete despite max_workers=1.
  int responses = 0;
  std::vector<std::unique_ptr<HttpClientConnection>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(
        std::make_unique<HttpClientConnection>(net.fabric, kServerAddr));
    clients.back()->fetch(http::make_get("http://10.0.0.1/x"),
                          [&](http::Response) { ++responses; });
  }
  net.loop.run();
  EXPECT_EQ(responses, 4);
  // The pool never grew, so later connections must have waited.
  EXPECT_GE(server.worker_waits(), 3u);
}

TEST(WorkerPool, MaxWorkersBoundsPoolGrowth) {
  PoolHarness h{WorkerPool{.initial_workers = 1,
                           .max_workers = 2,
                           .spawn_interval = 1'000}};
  // Two keep-alive connections hold both workers forever; a third would
  // starve, except our client closes... it does not close, so the third
  // request is the one that never completes. Use run_until to bound.
  std::vector<std::unique_ptr<HttpClientConnection>> clients;
  int responses = 0;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(
        std::make_unique<HttpClientConnection>(h.net.fabric, kServerAddr));
    clients.back()->fetch(http::make_get("http://10.0.0.1/x"),
                          [&](http::Response) { ++responses; });
  }
  h.net.loop.run_until(2_s);
  EXPECT_EQ(responses, 2);  // the third waits forever (pool capped)
}

TEST(WorkerPool, RequestsBufferWhileWaiting) {
  // A waiting connection's requests are answered once granted, in order.
  PoolHarness h{WorkerPool{.initial_workers = 1,
                           .max_workers = 8,
                           .spawn_interval = 20'000}};
  HttpClientConnection holder{h.net.fabric, kServerAddr};
  holder.fetch(http::make_get("http://10.0.0.1/hold"), [](http::Response) {});

  HttpClientConnection waiter{h.net.fabric, kServerAddr};
  std::vector<std::string> bodies;
  for (int i = 0; i < 3; ++i) {
    waiter.fetch(http::make_get("http://10.0.0.1/w" + std::to_string(i)),
                 [&](http::Response r) { bodies.push_back(std::move(r.body)); });
  }
  h.net.loop.run();
  ASSERT_EQ(bodies.size(), 3u);
}

}  // namespace
}  // namespace mahimahi::net
