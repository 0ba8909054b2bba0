#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/sim_fixture.hpp"
#include "obs/trace.hpp"
#include "trace/synthesis.hpp"
#include "util/random.hpp"

namespace mahimahi::net {
namespace {

using testing::SimNet;
using namespace mahimahi::literals;

const Address kServerAddr{Ipv4{10, 0, 0, 1}, 80};

/// Echo-style server harness: collects received bytes, optionally replies.
struct ServerApp {
  std::string received;
  bool peer_closed{false};
  std::shared_ptr<TcpConnection> connection;

  TcpListener::AcceptHandler accept_handler(std::string reply = {},
                                            bool close_after_reply = false) {
    return [this, reply, close_after_reply](
               const std::shared_ptr<TcpConnection>& conn) {
      connection = conn;
      // Callbacks live inside the connection: capturing the shared_ptr
      // there would be a reference cycle (leak). The raw pointer is safe
      // because callbacks only fire while the connection is alive.
      TcpConnection* raw = conn.get();
      TcpConnection::Callbacks cb;
      cb.on_data = [this, raw, reply,
                    close_after_reply](std::string_view bytes) {
        received.append(bytes);
        if (!reply.empty() && received.size() >= 5) {  // reply once primed
          raw->send(reply);
          if (close_after_reply) {
            raw->close();
          }
        }
      };
      cb.on_peer_close = [this, raw] {
        peer_closed = true;
        raw->close();
      };
      return cb;
    };
  }
};

TEST(Tcp, HandshakeCompletesThroughDelay) {
  SimNet net;
  net.add_delay(10_ms);
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  bool connected = false;
  Microseconds connected_at = 0;
  TcpClient client{net.fabric, kServerAddr,
                   {.on_connected =
                        [&] {
                          connected = true;
                          connected_at = net.loop.now();
                        }}};
  net.loop.run();
  EXPECT_TRUE(connected);
  // SYN (10ms) + SYN-ACK (10ms) = connected at client after 1 RTT.
  EXPECT_EQ(connected_at, 20_ms);
  EXPECT_NEAR(static_cast<double>(client.connection().smoothed_rtt()), 20'000, 1.0);
}

TEST(Tcp, DataArrivesIntactAndInOrder) {
  SimNet net;
  net.add_delay(5_ms);
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  TcpClient client{net.fabric, kServerAddr, {}};
  std::string payload;
  for (int i = 0; i < 10'000; ++i) {
    payload += static_cast<char>('a' + i % 26);
  }
  client.connection().send(payload);
  net.loop.run();
  EXPECT_EQ(server.received, payload);
}

TEST(Tcp, BidirectionalTransfer) {
  SimNet net;
  net.add_delay(5_ms);
  ServerApp server;
  const std::string reply(20'000, 'R');
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler(reply)};

  std::string client_received;
  TcpClient client{net.fabric, kServerAddr,
                   {.on_data = [&](std::string_view b) { client_received.append(b); }}};
  client.connection().send("hello");
  net.loop.run();
  EXPECT_EQ(server.received, "hello");
  EXPECT_EQ(client_received, reply);
}

TEST(Tcp, SlowStartLimitsFirstRoundTrip) {
  SimNet net;
  net.add_delay(50_ms);
  ServerApp server;
  // Reply large enough to need several RTTs of window growth.
  const std::string reply(200 * kMss, 'x');
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler(reply)};

  std::size_t received = 0;
  Microseconds done_at = 0;
  TcpClient client{net.fabric, kServerAddr,
                   {.on_data =
                        [&](std::string_view b) {
                          received += b.size();
                          done_at = net.loop.now();
                        }}};
  client.connection().send("hello");
  net.loop.run();
  ASSERT_EQ(received, reply.size());
  // With IW10 and unlimited bandwidth: 200 segments need cwnd growth
  // 10,20,40,80,160 -> 5 round trips after the request lands.
  // Request lands ~150 ms (handshake + one-way). Expect > 4 RTTs total
  // and well under a second.
  EXPECT_GT(done_at, 400_ms);
  EXPECT_LT(done_at, 1_s);
}

TEST(Tcp, ThroughputBoundedByTraceLink) {
  SimNet net;
  // 1 Mbit/s downlink, fast uplink.
  net.add_link(trace::constant_rate(50e6, 1_s), trace::constant_rate(1e6, 2_s));
  ServerApp server;
  const std::string reply(125'000, 'x');  // 1 Mbit of payload
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler(reply)};

  std::size_t received = 0;
  Microseconds done_at = 0;
  TcpClient client{net.fabric, kServerAddr,
                   {.on_data =
                        [&](std::string_view b) {
                          received += b.size();
                          done_at = net.loop.now();
                        }}};
  client.connection().send("hello");
  net.loop.run();
  ASSERT_EQ(received, reply.size());
  // 1 Mbit of payload + overheads over a 1 Mbit/s link: at least 1 s.
  EXPECT_GT(done_at, 1_s);
  EXPECT_LT(done_at, 2_s);
}

class TcpLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossSweep, ReliableDeliveryUnderLoss) {
  const double loss_rate = GetParam();
  SimNet net;
  net.add_delay(10_ms);
  net.add_loss(util::Rng{999}, loss_rate, loss_rate);
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  std::string payload;
  util::Rng rng{7};
  for (int i = 0; i < 50'000; ++i) {
    payload += static_cast<char>(rng.uniform_int(0, 255));
  }
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(payload);
  net.loop.run();
  EXPECT_EQ(server.received, payload);  // exactly once, in order
  if (loss_rate >= 0.05) {  // at 1% a 35-segment flow may get lucky
    EXPECT_GT(client.connection().retransmissions(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.2));

TEST(Tcp, CloseHandshakeReachesBothSides) {
  SimNet net;
  net.add_delay(5_ms);
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  bool client_saw_close = false;
  TcpClient client{net.fabric, kServerAddr,
                   {.on_peer_close = [&] { client_saw_close = true; }}};
  client.connection().send("bye");
  client.connection().close();
  net.loop.run();
  EXPECT_EQ(server.received, "bye");
  EXPECT_TRUE(server.peer_closed);
  EXPECT_TRUE(client_saw_close);          // server FINs back
  EXPECT_TRUE(client.connection().closed());
  EXPECT_EQ(listener.active_connections(), 0u);  // connection reaped
}

TEST(Tcp, ConnectionToUnboundPortIsReset) {
  SimNet net;
  net.add_delay(5_ms);
  // Bind a listener on port 80, then connect to port 81: the fabric drops
  // the packet (no endpoint), so the SYN retries and eventually gives up.
  // Connect to a bound listener's *other* port instead to get an RST fast:
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  bool reset = false;
  TcpConnection::Config config;
  config.max_syn_retries = 1;
  config.initial_rto = 100'000;
  TcpClient client{net.fabric, Address{Ipv4{10, 0, 0, 1}, 81},
                   {.on_reset = [&] { reset = true; }}, config};
  net.loop.run();
  EXPECT_TRUE(reset);  // SYN retries exhausted
}

TEST(Tcp, StrayNonSynPacketGetsRst) {
  SimNet net;
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  // Hand-craft a non-SYN packet from an unknown peer.
  bool got_rst = false;
  const Address rogue{net.fabric.client_ip(), 45000};
  net.fabric.bind(Side::kClient, rogue, [&](Packet&& p) {
    got_rst = p.tcp.rst;
  });
  Packet stray;
  stray.src = rogue;
  stray.dst = kServerAddr;
  stray.tcp.seq = 5;
  stray.tcp.payload = "junk";
  net.fabric.send(Side::kClient, std::move(stray));
  net.loop.run();
  EXPECT_TRUE(got_rst);
}

TEST(Tcp, RetransmissionTimeoutRecoversFromAckLoss) {
  SimNet net;
  net.add_delay(10_ms);
  // Brutal: 40% loss both ways; RTO must eventually push everything through.
  net.add_loss(util::Rng{31337}, 0.4, 0.4);
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  std::string payload(10 * kMss, 'z');
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(payload);
  net.loop.run();
  EXPECT_EQ(server.received, payload);
}

/// Drops every packet, both ways, while `dropping` is set.
class Blackout final : public NetworkElement {
 public:
  bool dropping{false};
  void process(Packet&& packet, Direction direction) override {
    if (!dropping) {
      emit(std::move(packet), direction);
    }
  }
};

TEST(Tcp, AckAfterBackoffPullsTheRtoEarlier) {
  // A blackout backs the RTO off (200 ms, then 400 ms, then 800 ms
  // pending). The ACK for the second retransmission resets the backoff,
  // so the next RTO is due at ack_time + rto() = ack_time + 200 ms, long
  // before the backed-off deadline: the timer must move earlier.
  SimNet net;
  net.add_delay(10_ms);
  auto box = std::make_unique<Blackout>();
  Blackout& blackout = *box;
  net.fabric.chain().push_back(std::move(box));
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};

  obs::Tracer tracer;
  TcpConnection::Config config;
  config.tracer = &tracer;
  bool watching = false;
  Microseconds ack_time = -1;
  TcpConnection::Callbacks callbacks;
  callbacks.on_send_progress = [&] {
    if (watching && ack_time < 0) {
      ack_time = net.loop.now();
    }
  };
  TcpClient client{net.fabric, kServerAddr, callbacks, config};
  net.loop.run_until(100_ms);
  ASSERT_TRUE(client.connection().established());  // srtt 20 ms: rto 200 ms

  blackout.dropping = true;
  client.connection().send(std::string(4 * kMss, 'x'));
  net.loop.run_until(650_ms);  // RTOs at 300 ms and 700 ms (backoff 400)
  blackout.dropping = false;
  watching = true;
  // Other traffic between the reset deadline and the backed-off one.
  std::uint64_t retransmits_at_1s = 0;
  net.loop.schedule_at(1_s, [&] {
    retransmits_at_1s = client.connection().retransmissions();
  });
  net.loop.run();

  ASSERT_EQ(ack_time, 720_ms);  // the 700 ms retransmission's ACK
  std::vector<Microseconds> rtos;
  for (const obs::TraceEvent& e : tracer.take().events) {
    if (e.kind == obs::EventKind::kTcpRto) {
      rtos.push_back(e.at);
    }
  }
  ASSERT_GE(rtos.size(), 3u);
  EXPECT_EQ(rtos[0], 300_ms);
  EXPECT_EQ(rtos[1], 700_ms);
  EXPECT_EQ(rtos[2], ack_time + 200_ms);  // not 700 ms + 800 ms
  EXPECT_EQ(retransmits_at_1s, 3u);
  EXPECT_EQ(server.received, std::string(4 * kMss, 'x'));
}

TEST(Tcp, BulkTransferIsZeroCopy) {
  // One bulk send() = one shared chunk; every data segment must alias it
  // rather than copying ~kMss bytes per transmission.
  SimNet net;
  net.add_delay(5_ms);
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  const std::string payload(100 * kMss, 'z');
  client.connection().send(payload);
  net.loop.run();
  ASSERT_EQ(server.received, payload);
  EXPECT_EQ(client.connection().payload_copy_bytes(), 0u);
}

TEST(Tcp, RetransmissionsAliasSendBufferToo) {
  // Drop a data segment so fast retransmit kicks in: the retransmitted
  // segment must still be a view, not a copy.
  SimNet net;
  net.add_delay(10_ms);
  struct OneShotDropper final : NetworkElement {
    int to_drop{12};
    int seen{0};
    void process(Packet&& p, Direction d) override {
      if (d == Direction::kUplink && !p.tcp.payload.empty() &&
          seen++ == to_drop) {
        return;
      }
      emit(std::move(p), d);
    }
  };
  net.fabric.chain().push_back(std::make_unique<OneShotDropper>());
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(std::string(60 * kMss, 'x'));
  net.loop.run();
  ASSERT_EQ(server.received.size(), 60 * kMss);
  EXPECT_GT(client.connection().retransmissions(), 0u);
  EXPECT_EQ(client.connection().payload_copy_bytes(), 0u);
}

TEST(Tcp, SegmentsOfOneSendShareTheBuffer) {
  // Observe segments in flight: all data segments of a single send()
  // alias one underlying buffer (refcount bumps, no byte copies).
  SimNet net;
  net.add_delay(1_ms);
  struct PayloadTap final : NetworkElement {
    std::vector<Payload> data_payloads;
    void process(Packet&& p, Direction d) override {
      if (d == Direction::kUplink && !p.tcp.payload.empty()) {
        data_payloads.push_back(p.tcp.payload);
      }
      emit(std::move(p), d);
    }
  };
  auto tap = std::make_unique<PayloadTap>();
  PayloadTap& tap_ref = *tap;
  net.fabric.chain().push_back(std::move(tap));
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(std::string(5 * kMss, 'q'));
  net.loop.run();
  ASSERT_GE(tap_ref.data_payloads.size(), 5u);
  for (std::size_t i = 1; i < tap_ref.data_payloads.size(); ++i) {
    EXPECT_TRUE(tap_ref.data_payloads[0].same_buffer(tap_ref.data_payloads[i]))
        << "segment " << i << " does not alias the send buffer";
  }
}

TEST(Tcp, MultiChunkSendBufferCopiesOnlyAtBoundaries) {
  // Many small sends create chunk boundaries; segments spanning one are
  // materialized (counted), everything else still aliases.
  SimNet net;
  net.add_delay(5_ms);
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  std::string expected;
  for (int i = 0; i < 40; ++i) {
    std::string piece(1000, static_cast<char>('a' + i % 26));
    expected += piece;
    client.connection().send(std::move(piece));
  }
  net.loop.run();
  ASSERT_EQ(server.received, expected);
  // Copies are bounded by roughly one MSS per boundary crossed, far below
  // the 40 kB that per-segment copying would cost.
  EXPECT_LT(client.connection().payload_copy_bytes(), expected.size() / 2);
}

TEST(Tcp, AppBytesCounted) {
  SimNet net;
  ServerApp server;
  TcpListener listener{net.fabric, kServerAddr, server.accept_handler()};
  TcpClient client{net.fabric, kServerAddr, {}};
  client.connection().send(std::string(1000, 'a'));
  net.loop.run();
  EXPECT_EQ(client.connection().bytes_sent_app(), 1000u);
  EXPECT_EQ(server.connection->bytes_received_app(), 1000u);
}

}  // namespace
}  // namespace mahimahi::net
