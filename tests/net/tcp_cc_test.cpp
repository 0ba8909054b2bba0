// Pluggable congestion control at the transport level: every registered
// controller must complete real transfers over the simulated fabric, the
// delay-based/rate-based controllers must keep bottleneck queues shorter
// than loss-based ones on a buffered link, and BBR's pacing must be
// deterministic (the 1-vs-N-thread byte-identity contract extends to
// paced send paths).

#include <gtest/gtest.h>

#include "cc/bbr_lite.hpp"
#include "cc/registry.hpp"
#include "net/link_log.hpp"
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
      cb.on_peer_close = [raw = conn.get()] { raw->close(); };
      return cb;
    };
  }
};

struct TransferOutcome {
  Microseconds completed_at{0};
  std::uint64_t segments_sent{0};
  std::uint64_t retransmissions{0};
  double queue_delay_p95_ms{0};
};

/// One bulk transfer under `controller` over a 8 Mbit/s link with a
/// deep (unbounded) buffer and 20 ms one-way delay; the link summary
/// yields the queueing-delay distribution the controller induced.
TransferOutcome bulk_transfer(const std::string& controller,
                              std::size_t bytes = 400 * kMss,
                              double loss = 0.0) {
  SimNet net;
  net.add_delay(20_ms);
  TraceLink& link = net.add_link(trace::constant_rate(8e6, 60_s),
                                 trace::constant_rate(8e6, 60_s));
  link.enable_summary(Direction::kUplink);
  if (loss > 0) {
    net.add_loss(util::Rng{7}, loss, loss);
  }

  SinkServer server;
  TcpListener listener{net.fabric, kServerAddr, server.handler()};
  TcpConnection::Config config;
  config.congestion_control = controller;
  TcpClient client{net.fabric, kServerAddr, {}, config};
  client.connection().send(std::string(bytes, 'x'));
  client.connection().close();
  net.loop.run();

  EXPECT_EQ(server.received.size(), bytes) << controller;
  TransferOutcome outcome;
  outcome.completed_at = net.loop.now();
  outcome.segments_sent = client.connection().segments_sent();
  outcome.retransmissions = client.connection().retransmissions();
  outcome.queue_delay_p95_ms = link.summary(Direction::kUplink).delay_p95_ms;
  return outcome;
}

TEST(TcpCc, EveryRegisteredControllerCompletesCleanTransfers) {
  for (const std::string& name : cc::registered_controllers()) {
    const TransferOutcome outcome = bulk_transfer(name);
    EXPECT_GT(outcome.completed_at, 0) << name;
    EXPECT_GE(outcome.segments_sent, 400u) << name;
  }
}

TEST(TcpCc, EveryRegisteredControllerSurvivesALossyPath) {
  for (const std::string& name : cc::registered_controllers()) {
    const TransferOutcome outcome =
        bulk_transfer(name, 200 * kMss, /*loss=*/0.02);
    EXPECT_GT(outcome.retransmissions, 0u) << name;
  }
}

TEST(TcpCc, DelayAndRateBasedControllersKeepTheQueueShort) {
  // On a deep-buffered link, Reno slow-starts past the BDP and parks a
  // standing queue; Vegas backs off on the delay signal and BBR paces at
  // the estimated bottleneck rate, so both should see far less queueing.
  const double reno_p95 = bulk_transfer("reno").queue_delay_p95_ms;
  const double vegas_p95 = bulk_transfer("vegas").queue_delay_p95_ms;
  const double bbr_p95 = bulk_transfer("bbr").queue_delay_p95_ms;
  EXPECT_LT(vegas_p95, reno_p95 * 0.5)
      << "vegas " << vegas_p95 << " ms vs reno " << reno_p95 << " ms";
  EXPECT_LT(bbr_p95, reno_p95 * 0.5)
      << "bbr " << bbr_p95 << " ms vs reno " << reno_p95 << " ms";
}

TEST(TcpCc, PacedSendPathIsDeterministic) {
  // Two identical BBR runs must match event-for-event: pacing timers are
  // driven purely by simulated time and controller state.
  const TransferOutcome first = bulk_transfer("bbr", 300 * kMss, 0.01);
  const TransferOutcome second = bulk_transfer("bbr", 300 * kMss, 0.01);
  EXPECT_EQ(first.completed_at, second.completed_at);
  EXPECT_EQ(first.segments_sent, second.segments_sent);
  EXPECT_EQ(first.retransmissions, second.retransmissions);
  EXPECT_DOUBLE_EQ(first.queue_delay_p95_ms, second.queue_delay_p95_ms);
}

TEST(TcpCc, DefaultConfigStillRunsReno) {
  SimNet net;
  net.add_delay(5_ms);
  SinkServer server;
  TcpListener listener{net.fabric, kServerAddr, server.handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  EXPECT_EQ(client.connection().congestion().name(), "reno");
  EXPECT_DOUBLE_EQ(client.connection().congestion().pacing_rate(), 0.0);
}

TEST(TcpCc, UnknownControllerNameThrowsAtConstruction) {
  SimNet net;
  TcpConnection::Config config;
  config.congestion_control = "no-such-cc";
  EXPECT_THROW((TcpClient{net.fabric, kServerAddr, {}, config}),
               std::invalid_argument);
}

TEST(TcpCc, BbrConnectionReportsPacingAndPhase) {
  SimNet net;
  net.add_delay(20_ms);
  net.add_link(trace::constant_rate(8e6, 60_s), trace::constant_rate(8e6, 60_s));
  SinkServer server;
  TcpListener listener{net.fabric, kServerAddr, server.handler()};
  TcpConnection::Config config;
  config.congestion_control = "bbr";
  TcpClient client{net.fabric, kServerAddr, {}, config};
  client.connection().send(std::string(500 * kMss, 'x'));
  net.loop.run();
  ASSERT_EQ(server.received.size(), 500 * kMss);

  const auto& controller =
      dynamic_cast<const cc::BbrLite&>(client.connection().congestion());
  // A 500-segment transfer is long enough to fill the pipe and settle
  // into steady-state probing; the bandwidth estimate should be within
  // ~2x of the true 8 Mbit/s = 1 MB/s bottleneck.
  EXPECT_EQ(controller.phase(), cc::BbrLite::Phase::kProbeBw);
  EXPECT_GT(controller.bandwidth_estimate(), 0.4e6);
  EXPECT_LT(controller.bandwidth_estimate(), 2.2e6);
}

}  // namespace
}  // namespace mahimahi::net
