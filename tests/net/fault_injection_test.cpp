// Net-layer fault injectors: link flaps, payload corruption, DNS faults,
// origin crash/stall/brown-out, and the typed TCP close reasons the
// resilience layer keys on. Everything here must be deterministic — the
// injectors are pure functions of (seed, direction, packet index) or of
// the request/query index, never of wall-clock or scheduling order.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "net/dns.hpp"
#include "net/element.hpp"
#include "net/http_session.hpp"
#include "net/mux.hpp"
#include "net/sim_fixture.hpp"
#include "net/tcp.hpp"

namespace mahimahi::net {
namespace {

using testing::SimNet;
using namespace mahimahi::literals;

const Address kServerAddr{Ipv4{10, 0, 0, 1}, 80};
const Address kDnsAddr{Ipv4{10, 0, 0, 53}, kDnsPort};

Packet flap_packet(std::uint64_t id) {
  Packet p;
  p.id = id;
  p.tcp.payload = "probe";
  return p;
}

// --- FlapBox ----------------------------------------------------------------

TEST(FlapBox, DropsOnlyInsideTheDownWindow) {
  EventLoop loop;
  Chain chain;
  chain.push_back(std::make_unique<FlapBox>(loop, /*period=*/100_ms,
                                            /*down=*/30_ms, /*offset=*/10_ms));
  std::vector<std::uint64_t> delivered;
  chain.set_outputs([&](Packet&& p) { delivered.push_back(p.id); },
                    [](Packet&&) {});

  // Window layout: up on [0, 10ms), down on [10ms, 40ms), up on
  // [40ms, 110ms), down on [110ms, 140ms), ...
  loop.schedule_at(5_ms, [&] { chain.send_uplink(flap_packet(1)); });     // up
  loop.schedule_at(15_ms, [&] { chain.send_uplink(flap_packet(2)); });    // down
  loop.schedule_at(39_ms, [&] { chain.send_uplink(flap_packet(3)); });    // down
  loop.schedule_at(40_ms, [&] { chain.send_uplink(flap_packet(4)); });    // up
  loop.schedule_at(111_ms, [&] { chain.send_uplink(flap_packet(5)); });   // down
  loop.schedule_at(150_ms, [&] { chain.send_uplink(flap_packet(6)); });   // up
  loop.run();

  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 4, 6}));
}

TEST(FlapBox, CountsDropsPerDirectionAndReportsLinkState) {
  EventLoop loop;
  FlapBox box{loop, /*period=*/50_ms, /*down=*/20_ms, /*offset=*/0};
  // Down window starts immediately (offset 0).
  EXPECT_TRUE(box.link_down());
  Chain chain;
  auto owned = std::make_unique<FlapBox>(loop, 50_ms, 20_ms, 0);
  FlapBox& flap = *owned;
  chain.push_back(std::move(owned));
  int up_out = 0;
  int down_out = 0;
  chain.set_outputs([&](Packet&&) { ++up_out; }, [&](Packet&&) { ++down_out; });

  chain.send_uplink(flap_packet(1));    // t=0: down
  chain.send_downlink(flap_packet(2));  // t=0: down
  loop.schedule_at(30_ms, [&] {
    EXPECT_FALSE(flap.link_down());
    chain.send_uplink(flap_packet(3));    // up: passes
    chain.send_downlink(flap_packet(4));  // up: passes
  });
  loop.run();

  EXPECT_EQ(flap.dropped(Direction::kUplink), 1u);
  EXPECT_EQ(flap.dropped(Direction::kDownlink), 1u);
  EXPECT_EQ(up_out, 1);
  EXPECT_EQ(down_out, 1);
}

// --- CorruptBox -------------------------------------------------------------

TEST(CorruptBox, RateExtremesPassOrDropEverything) {
  EventLoop loop;
  for (const double rate : {0.0, 1.0}) {
    Chain chain;
    auto owned = std::make_unique<CorruptBox>(/*seed=*/7, rate);
    CorruptBox& box = *owned;
    chain.push_back(std::move(owned));
    int delivered = 0;
    chain.set_outputs([&](Packet&&) { ++delivered; }, [](Packet&&) {});
    for (std::uint64_t i = 0; i < 64; ++i) {
      chain.send_uplink(flap_packet(i));
    }
    EXPECT_EQ(delivered, rate == 0.0 ? 64 : 0);
    EXPECT_EQ(box.corrupted(Direction::kUplink), rate == 0.0 ? 0u : 64u);
    EXPECT_EQ(box.corrupted(Direction::kDownlink), 0u);
  }
}

TEST(CorruptBox, SameSeedCorruptsTheSamePacketIndices) {
  // The corruption decision for packet #i depends only on (seed,
  // direction, i) — two boxes with one seed agree packet by packet, and a
  // different seed picks a different victim set.
  const auto victims = [](std::uint64_t seed) {
    Chain chain;
    chain.push_back(std::make_unique<CorruptBox>(seed, 0.3));
    std::vector<std::uint64_t> survivors;
    chain.set_outputs([&](Packet&& p) { survivors.push_back(p.id); },
                      [](Packet&&) {});
    for (std::uint64_t i = 0; i < 200; ++i) {
      chain.send_uplink(flap_packet(i));
    }
    return survivors;
  };
  EXPECT_EQ(victims(11), victims(11));
  EXPECT_NE(victims(11), victims(12));
  const std::size_t survived = victims(11).size();
  EXPECT_GT(survived, 100u);  // ~140 expected at rate 0.3
  EXPECT_LT(survived, 180u);
}

// --- DNS faults -------------------------------------------------------------

TEST(DnsFaults, FailAnswersNxdomainForKnownNames) {
  SimNet net;
  DnsTable table;
  table.add("www.example.com", Ipv4{93, 184, 216, 34});
  DnsServer server{net.fabric, kDnsAddr, table};
  server.set_fault_hook([](std::uint64_t) { return DnsFault::kFail; });
  DnsClient client{net.fabric, kDnsAddr};

  std::optional<std::optional<Ipv4>> answer;
  client.resolve("www.example.com",
                 [&](std::optional<Ipv4> ip) { answer = ip; });
  net.loop.run();
  ASSERT_TRUE(answer.has_value());  // a reply arrived...
  EXPECT_FALSE(answer->has_value());  // ...but it was NXDOMAIN
  EXPECT_EQ(server.faults_injected(), 1u);
}

TEST(DnsFaults, DroppedQueryIsRecoveredByClientRetry) {
  SimNet net;
  DnsTable table;
  table.add("www.example.com", Ipv4{93, 184, 216, 34});
  DnsServer server{net.fabric, kDnsAddr, table};
  // Swallow only the first query; the client's retransmit recovers.
  server.set_fault_hook([](std::uint64_t query_index) {
    return query_index == 0 ? DnsFault::kDrop : DnsFault::kNone;
  });
  DnsClient client{net.fabric, kDnsAddr, /*query_timeout=*/100_ms,
                   /*max_retries=*/2};

  std::optional<Ipv4> answer;
  Microseconds answered_at = 0;
  client.resolve("www.example.com", [&](std::optional<Ipv4> ip) {
    answer = ip;
    answered_at = net.loop.now();
  });
  net.loop.run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(server.faults_injected(), 1u);
  EXPECT_EQ(server.queries_served(), 2u);
  EXPECT_GE(answered_at, 100_ms);  // paid one query timeout
}

TEST(DnsFaults, DropBeyondRetryBudgetFailsTheLookup) {
  SimNet net;
  DnsTable table;
  table.add("www.example.com", Ipv4{93, 184, 216, 34});
  DnsServer server{net.fabric, kDnsAddr, table};
  server.set_fault_hook([](std::uint64_t) { return DnsFault::kDrop; });
  DnsClient client{net.fabric, kDnsAddr, /*query_timeout=*/50_ms,
                   /*max_retries=*/1};

  std::optional<std::optional<Ipv4>> answer;
  client.resolve("www.example.com",
                 [&](std::optional<Ipv4> ip) { answer = ip; });
  net.loop.run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_FALSE(answer->has_value());
  EXPECT_EQ(server.faults_injected(), 2u);  // original + one retry
}

// --- Origin faults (both protocols) ----------------------------------------

std::string ok_handler(const http::Request&) {
  return http::to_framed_bytes(http::make_ok(std::string(20'000, 'b')));
}

/// A server/client pair of one application protocol. Every origin fault
/// must mean the same thing on both: the cases below run over each pair.
struct Http11 {
  using Server = HttpServer;
  using Client = HttpClientConnection;
};
struct Multiplexed {
  using Server = mux::MuxServer;
  using Client = mux::MuxClientConnection;
};

struct ProtocolNames {
  template <typename P>
  static std::string GetName(int) {
    return std::is_same_v<P, Http11> ? "Http11" : "Multiplexed";
  }
};

template <typename P>
class OriginFaults : public ::testing::Test {
 protected:
  using Server = typename P::Server;
  using Client = typename P::Client;
};

using Protocols = ::testing::Types<Http11, Multiplexed>;
TYPED_TEST_SUITE(OriginFaults, Protocols, ProtocolNames);

ServerFaultHook crash_at(std::uint64_t index, double fraction = 0.5) {
  return [index, fraction](std::uint64_t request_index) {
    ServerFault fault;
    if (request_index == index) {
      fault.kind = ServerFault::Kind::kCrash;
      fault.fraction = fraction;
    }
    return fault;
  };
}

TYPED_TEST(OriginFaults, CrashSendsPartialResponseThenReset) {
  SimNet net;
  net.add_delay(5_ms);
  typename TestFixture::Server server{net.fabric, kServerAddr, ok_handler};
  server.set_fault_hook(crash_at(0));

  std::string error;
  bool got_response = false;
  typename TestFixture::Client client{
      net.fabric, kServerAddr,
      [&](const std::string& reason) { error = reason; }};
  client.fetch(http::make_get("http://10.0.0.1/hero.jpg"),
               [&](http::Response) { got_response = true; });
  net.loop.run();

  EXPECT_FALSE(got_response);
  EXPECT_EQ(error, "connection reset");
  EXPECT_EQ(server.faults_injected(), 1u);
  EXPECT_EQ(server.requests_served(), 1u);  // the handler ran
  EXPECT_FALSE(client.alive());
}

TYPED_TEST(OriginFaults, CrashFiresAfterThinkTime) {
  // The replay path: every origin thinks for 1.5 ms, so a crash is
  // scheduled behind the think time instead of cutting the wire at once.
  SimNet net;
  net.add_delay(5_ms);
  typename TestFixture::Server server{net.fabric, kServerAddr, ok_handler,
                                      /*processing_delay=*/40_ms};
  server.set_fault_hook(crash_at(0, /*fraction=*/0.0));

  std::string error;
  Microseconds failed_at = 0;
  bool got_response = false;
  typename TestFixture::Client client{net.fabric, kServerAddr,
                                      [&](const std::string& reason) {
                                        error = reason;
                                        failed_at = net.loop.now();
                                      }};
  client.fetch(http::make_get("http://10.0.0.1/hero.jpg"),
               [&](http::Response) { got_response = true; });
  net.loop.run();

  EXPECT_FALSE(got_response);
  EXPECT_EQ(error, "connection reset");
  // Handshake (1 RTT) + request (1/2 RTT) + think + reset (1/2 RTT).
  EXPECT_GE(failed_at, 20_ms + 40_ms);
  EXPECT_EQ(server.faults_injected(), 1u);
  EXPECT_FALSE(client.alive());
}

TYPED_TEST(OriginFaults, StallAcceptsTheRequestAndNeverResponds) {
  SimNet net;
  net.add_delay(5_ms);
  typename TestFixture::Server server{net.fabric, kServerAddr, ok_handler};
  server.set_fault_hook([](std::uint64_t) {
    ServerFault fault;
    fault.kind = ServerFault::Kind::kStall;
    return fault;
  });

  std::string error;
  bool got_response = false;
  typename TestFixture::Client client{
      net.fabric, kServerAddr,
      [&](const std::string& reason) { error = reason; }};
  client.fetch(http::make_get("http://10.0.0.1/spinner.gif"),
               [&](http::Response) { got_response = true; });
  net.loop.run();  // drains: the stalled request leaves nothing scheduled

  EXPECT_FALSE(got_response);
  EXPECT_TRUE(error.empty());  // a stall is silent — only a deadline sees it
  EXPECT_EQ(server.faults_injected(), 1u);
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_TRUE(client.alive());
}

TYPED_TEST(OriginFaults, ExtraDelayDefersTheResponse) {
  SimNet net;
  typename TestFixture::Server server{net.fabric, kServerAddr, ok_handler};
  server.set_fault_hook([](std::uint64_t) {
    ServerFault fault;  // kNone — brown-out latency only
    fault.extra_delay = 80_ms;
    return fault;
  });
  typename TestFixture::Client client{net.fabric, kServerAddr};
  Microseconds done_at = 0;
  client.fetch(http::make_get("http://10.0.0.1/slow"),
               [&](http::Response r) {
                 EXPECT_EQ(r.status, 200);
                 done_at = net.loop.now();
               });
  net.loop.run();
  EXPECT_GE(done_at, 80_ms);
  EXPECT_EQ(server.faults_injected(), 0u);  // latency alone is no fault
  EXPECT_EQ(server.requests_served(), 1u);
}

TYPED_TEST(OriginFaults, OnlyTheFaultedRequestOnAConnectionIsLost) {
  // Request #1 crashes the connection; a fresh connection then fetches the
  // same object fine — exactly the sequence the browser's retry path runs.
  SimNet net;
  net.add_delay(2_ms);
  typename TestFixture::Server server{net.fabric, kServerAddr, ok_handler};
  server.set_fault_hook(crash_at(1));

  int responses = 0;
  std::string error;
  auto client = std::make_unique<typename TestFixture::Client>(
      net.fabric, kServerAddr,
      [&](const std::string& reason) { error = reason; });
  client->fetch(http::make_get("http://10.0.0.1/a"), [&](http::Response) {
    ++responses;
    // Issued once /a is complete, so /a's bytes are never in flight when
    // /b's crash resets the connection.
    client->fetch(http::make_get("http://10.0.0.1/b"),
                  [&](http::Response) { ++responses; });
  });
  net.loop.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(error, "connection reset");

  typename TestFixture::Client retry{net.fabric, kServerAddr};
  retry.fetch(http::make_get("http://10.0.0.1/b"),
              [&](http::Response) { ++responses; });
  net.loop.run();
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(server.faults_injected(), 1u);
  EXPECT_EQ(server.requests_served(), 3u);
}

// --- Origin faults (mux only) ------------------------------------------------

TEST(MuxOriginFaults, CrashResetsEveryStreamOnTheConnection) {
  SimNet net;
  net.add_delay(5_ms);
  mux::MuxServer server{net.fabric, kServerAddr, ok_handler};
  server.set_fault_hook([](std::uint64_t request_index) {
    ServerFault fault;
    if (request_index == 2) {  // third stream takes the whole mux down
      fault.kind = ServerFault::Kind::kCrash;
    }
    return fault;
  });

  std::string error;
  int responses = 0;
  mux::MuxClientConnection client{
      net.fabric, kServerAddr,
      [&](const std::string& reason) { error = reason; }};
  for (int i = 0; i < 3; ++i) {
    client.fetch(http::make_get("http://10.0.0.1/s" + std::to_string(i)),
                 [&](http::Response) { ++responses; });
  }
  net.loop.run();

  EXPECT_EQ(error, "connection reset");
  EXPECT_FALSE(client.alive());
  EXPECT_EQ(client.outstanding(), 0u);  // no stream left dangling
  EXPECT_EQ(server.faults_injected(), 1u);
  EXPECT_LT(responses, 3);
}

// --- Typed TCP close reasons ------------------------------------------------

TEST(TcpCloseReason, LabelsAreStable) {
  // The labels are API: the HTTP/mux clients forward them verbatim as
  // error strings, and the browser's retry policy matches on them.
  EXPECT_EQ(to_string(TcpConnection::CloseReason::kNone), "open");
  EXPECT_EQ(to_string(TcpConnection::CloseReason::kNormal), "closed");
  EXPECT_EQ(to_string(TcpConnection::CloseReason::kPeerReset), "peer reset");
  EXPECT_EQ(to_string(TcpConnection::CloseReason::kSynTimeout),
            "connect timeout (SYN retransmit limit)");
  EXPECT_EQ(to_string(TcpConnection::CloseReason::kRetransmitExhausted),
            "retransmit limit exhausted");
  EXPECT_EQ(to_string(TcpConnection::CloseReason::kLocalAbort), "local abort");
}

TEST(TcpCloseReason, SynTimeoutSurfacesThroughHttpClient) {
  SimNet net;
  // No listener bound: SYNs vanish, the handshake gives up, and the typed
  // reason reaches the application as the error string.
  TcpConnection::Config config;
  config.max_syn_retries = 1;
  config.initial_rto = 100_ms;
  std::string error;
  HttpClientConnection client{net.fabric, kServerAddr,
                              [&](const std::string& reason) { error = reason; },
                              config};
  bool got_response = false;
  client.fetch(http::make_get("http://10.0.0.1/x"),
               [&](http::Response) { got_response = true; });
  net.loop.run();
  EXPECT_FALSE(got_response);
  EXPECT_EQ(error, "connect timeout (SYN retransmit limit)");
  EXPECT_FALSE(client.alive());
}

TEST(TcpCloseReason, BlackholeMidTransferExhaustsRetransmits) {
  SimNet net;
  // Link up for the handshake, then down for the rest of the test: the
  // client's in-flight data retransmits until the RTO budget runs out.
  net.fabric.chain().push_back(std::make_unique<FlapBox>(
      net.loop, /*period=*/1000_s, /*down=*/999_s, /*offset=*/50_ms));

  bool accepted = false;
  TcpListener listener{net.fabric, kServerAddr,
                       [&](const std::shared_ptr<TcpConnection>&) {
                         accepted = true;
                         return TcpConnection::Callbacks{};
                       }};

  TcpConnection::Config config;
  config.max_rto_retries = 2;
  config.initial_rto = 100_ms;
  config.min_rto = 100_ms;
  bool reset = false;
  TcpClient client{net.fabric, kServerAddr,
                   {.on_reset = [&] { reset = true; }}, config};
  // Send once the blackhole window has opened.
  net.loop.schedule_at(60_ms, [&] { client.connection().send("doomed"); });
  net.loop.run();

  EXPECT_TRUE(accepted);  // handshake beat the blackhole
  EXPECT_TRUE(reset);
  EXPECT_EQ(client.connection().close_reason(),
            TcpConnection::CloseReason::kRetransmitExhausted);
  EXPECT_EQ(std::string{to_string(client.connection().close_reason())},
            "retransmit limit exhausted");
}

}  // namespace
}  // namespace mahimahi::net
