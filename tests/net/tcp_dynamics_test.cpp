// TCP congestion-control dynamics: slow start growth, loss response,
// RTO backoff, keep-alive warm-window behaviour. These pin down the
// transport properties the page-load results depend on.

#include <gtest/gtest.h>

#include "net/sim_fixture.hpp"
#include "trace/synthesis.hpp"

namespace mahimahi::net {
namespace {

using testing::SimNet;
using namespace mahimahi::literals;

const Address kServerAddr{Ipv4{10, 0, 0, 1}, 80};

struct SinkServer {
  std::string received;
  std::shared_ptr<TcpConnection> connection;

  TcpListener::AcceptHandler handler() {
    return [this](const std::shared_ptr<TcpConnection>& conn) {
      connection = conn;
      TcpConnection::Callbacks cb;
      cb.on_data = [this](std::string_view b) { received.append(b); };
      // Raw pointer: a shared_ptr captured in the connection's own
      // callbacks would be a reference cycle (leak).
      cb.on_peer_close = [raw = conn.get()] { raw->close(); };
      return cb;
    };
  }
};

TEST(TcpDynamics, InitialWindowIsTenSegments) {
  SimNet net;
  net.add_delay(50_ms);  // long RTT: first flight fully visible
  auto meter = std::make_unique<MeterBox>();
  MeterBox& m = *meter;
  net.fabric.chain().push_back(std::move(meter));

  SinkServer server;
  TcpListener listener{net.fabric, kServerAddr, server.handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(std::string(100 * kMss, 'x'));
  // Run just past the first data flight (handshake 100 ms + half RTT).
  net.loop.run_until(190_ms);
  // Uplink packets so far: SYN + handshake ACK + first window of data.
  const auto packets = m.packets(Direction::kUplink);
  EXPECT_GE(packets, 2u + 10u);
  EXPECT_LE(packets, 2u + 12u);  // IW10 (+ slight scheduling slack)
  net.loop.run();
  EXPECT_EQ(server.received.size(), 100 * kMss);
}

TEST(TcpDynamics, SlowStartRoughlyDoublesPerRtt) {
  SimNet net;
  net.add_delay(50_ms);
  SinkServer server;
  TcpListener listener{net.fabric, kServerAddr, server.handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(std::string(300 * kMss, 'x'));

  // Sample received bytes at RTT boundaries after the handshake (~100 ms).
  std::vector<std::size_t> at_rtt;
  for (int rtt = 1; rtt <= 4; ++rtt) {
    net.loop.run_until(100_ms + rtt * 100_ms + 60_ms);
    at_rtt.push_back(server.received.size());
  }
  net.loop.run();
  // Each RTT's delivered increment should grow geometrically (~2x).
  const double first = static_cast<double>(at_rtt[1] - at_rtt[0]);
  const double second = static_cast<double>(at_rtt[2] - at_rtt[1]);
  EXPECT_GT(second, first * 1.5);
  EXPECT_EQ(server.received.size(), 300 * kMss);
}

TEST(TcpDynamics, LossHalvesDeliveryRateTemporarily) {
  // With loss, completion takes measurably longer than without.
  const std::string payload(400 * kMss, 'x');
  Microseconds clean_done = 0;
  Microseconds lossy_done = 0;
  for (const double loss : {0.0, 0.02}) {
    SimNet net;
    net.add_delay(20_ms);
    net.add_link(trace::constant_rate(30e6, 1_s), trace::constant_rate(30e6, 1_s));
    if (loss > 0) {
      net.add_loss(util::Rng{42}, loss, loss);
    }
    SinkServer server;
    TcpListener listener{net.fabric, kServerAddr, server.handler()};
    TcpClient client{net.fabric, kServerAddr, {}};
    client.connection().send(payload);
    net.loop.run();
    ASSERT_EQ(server.received.size(), payload.size());
    (loss == 0.0 ? clean_done : lossy_done) = net.loop.now();
  }
  EXPECT_GT(lossy_done, clean_done * 1.2);
}

TEST(TcpDynamics, FastRetransmitBeatsRtoForIsolatedLoss) {
  // A single mid-stream drop should recover via dup-acks in ~1 RTT, far
  // below the 200 ms minimum RTO.
  SimNet net;
  net.add_delay(10_ms);
  // Drop exactly one uplink data packet using a one-shot dropper element.
  struct OneShotDropper final : NetworkElement {
    int to_drop_index{15};
    int seen{0};
    void process(Packet&& p, Direction d) override {
      if (d == Direction::kUplink && !p.tcp.payload.empty() &&
          seen++ == to_drop_index) {
        return;  // dropped
      }
      emit(std::move(p), d);
    }
  };
  net.fabric.chain().push_back(std::make_unique<OneShotDropper>());

  SinkServer server;
  TcpListener listener{net.fabric, kServerAddr, server.handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(std::string(60 * kMss, 'x'));
  net.loop.run();
  ASSERT_EQ(server.received.size(), 60 * kMss);
  // Without loss this takes ~3 RTT ≈ 60 ms + transfer; a fast retransmit
  // adds ~1 RTT. An RTO would add >= 200 ms. Assert we stayed well below.
  EXPECT_LT(net.loop.now(), 250_ms);
  EXPECT_EQ(client.connection().retransmissions(), 1u);
}

TEST(TcpDynamics, RtoBackoffIsExponential) {
  // SYN to a blackhole: retries at ~1s, 2s, 4s, ... (initial RTO 1s).
  SimNet net;
  // Meter first (client side), then the blackhole: the meter counts what
  // the client sends before the loss box eats it.
  auto meter = std::make_unique<MeterBox>();
  MeterBox& m = *meter;
  net.fabric.chain().push_back(std::move(meter));
  net.add_loss(util::Rng{1}, 1.0, 1.0);  // everything dies

  bool reset = false;
  TcpConnection::Config config;
  config.max_syn_retries = 3;
  TcpClient client{net.fabric, kServerAddr,
                   {.on_reset = [&] { reset = true; }}, config};
  net.loop.run();
  EXPECT_TRUE(reset);
  // SYN + 3 retries crossed the meter.
  EXPECT_EQ(m.packets(Direction::kUplink), 4u);
  // Total time ~ 1 + 2 + 4 (+ last wait) seconds.
  EXPECT_GE(net.loop.now(), 6_s);
  EXPECT_LE(net.loop.now(), 20_s);
}

TEST(TcpDynamics, WarmConnectionSkipsSlowStartOnSecondTransfer) {
  // Second response on a keep-alive connection rides the opened cwnd:
  // it completes in fewer RTTs than the first.
  SimNet net;
  net.add_delay(40_ms);
  HttpServer server{net.fabric, kServerAddr, [](const http::Request&) {
                      return http::to_framed_bytes(
                          http::make_ok(std::string(40 * kMss, 'r')));
                    }};
  HttpClientConnection client{net.fabric, kServerAddr};

  Microseconds first_done = 0;
  Microseconds second_done = 0;
  client.fetch(http::make_get("http://10.0.0.1/a"), [&](http::Response) {
    first_done = net.loop.now();
  });
  client.fetch(http::make_get("http://10.0.0.1/b"), [&](http::Response) {
    second_done = net.loop.now();
  });
  net.loop.run();
  ASSERT_GT(first_done, 0);
  ASSERT_GT(second_done, first_done);
  const Microseconds first_elapsed = first_done;         // includes handshake
  const Microseconds second_elapsed = second_done - first_done;
  EXPECT_LT(second_elapsed, first_elapsed);  // warm path is faster
}

TEST(TcpDynamics, SmoothedRttTracksPathDelay) {
  SimNet net;
  net.add_delay(35_ms);
  SinkServer server;
  TcpListener listener{net.fabric, kServerAddr, server.handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(std::string(50 * kMss, 'x'));
  net.loop.run();
  EXPECT_NEAR(static_cast<double>(client.connection().smoothed_rtt()),
              70'000.0, 7'000.0);
}

}  // namespace
}  // namespace mahimahi::net
