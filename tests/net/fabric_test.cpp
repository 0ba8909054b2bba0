#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include "net/event_loop.hpp"

namespace mahimahi::net {
namespace {

using namespace mahimahi::literals;

const Address kServer{Ipv4{10, 0, 0, 1}, 80};

Packet make_packet(Address src, Address dst) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.tcp.payload = "x";
  return p;
}

struct FabricHarness {
  EventLoop loop;
  Fabric fabric{loop};
};

TEST(Fabric, DeliversToBoundServerEndpoint) {
  FabricHarness h;
  int delivered = 0;
  h.fabric.bind(Side::kServer, kServer, [&](Packet&&) { ++delivered; });
  const Address client = h.fabric.allocate_client_address();
  h.fabric.send(Side::kClient, make_packet(client, kServer));
  h.loop.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(h.fabric.delivered_packets(Side::kServer), 1u);
  EXPECT_EQ(h.fabric.undeliverable_packets(), 0u);
}

TEST(Fabric, DoubleBindThrows) {
  FabricHarness h;
  h.fabric.bind(Side::kServer, kServer, [](Packet&&) {});
  EXPECT_THROW(h.fabric.bind(Side::kServer, kServer, [](Packet&&) {}),
               std::invalid_argument);
  // Same address is fine on the *other* side (separate tables).
  h.fabric.bind(Side::kClient, kServer, [](Packet&&) {});
}

TEST(Fabric, UnbindStopsDelivery) {
  FabricHarness h;
  int delivered = 0;
  h.fabric.bind(Side::kServer, kServer, [&](Packet&&) { ++delivered; });
  h.fabric.unbind(Side::kServer, kServer);
  EXPECT_FALSE(h.fabric.bound(Side::kServer, kServer));
  h.fabric.send(Side::kClient, make_packet({}, kServer));
  h.loop.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(h.fabric.undeliverable_packets(), 1u);
}

TEST(Fabric, EphemeralAddressesAreUnique) {
  FabricHarness h;
  const Address a = h.fabric.allocate_client_address();
  const Address b = h.fabric.allocate_client_address();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.ip, b.ip);  // one client host
  EXPECT_EQ(a.ip, h.fabric.client_ip());
}

TEST(Fabric, ServerIpsAreUnique) {
  FabricHarness h;
  EXPECT_NE(h.fabric.allocate_server_ip(), h.fabric.allocate_server_ip());
}

TEST(Fabric, PacketIdsAreAssignedAndIncrease) {
  FabricHarness h;
  std::vector<std::uint64_t> ids;
  h.fabric.bind(Side::kServer, kServer,
                [&](Packet&& p) { ids.push_back(p.id); });
  for (int i = 0; i < 3; ++i) {
    h.fabric.send(Side::kClient, make_packet({}, kServer));
  }
  h.loop.run();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_LT(ids[0], ids[1]);
  EXPECT_LT(ids[1], ids[2]);
}

TEST(Fabric, ServerDelayAppliesBothWays) {
  FabricHarness h;
  const Ipv4 far_ip{10, 0, 0, 9};
  const Address far{far_ip, 80};
  h.fabric.set_server_delay(far_ip, 25_ms);
  EXPECT_EQ(h.fabric.server_delay(far_ip), 25_ms);
  EXPECT_EQ(h.fabric.server_delay(kServer.ip), 0);

  Microseconds arrival = -1;
  h.fabric.bind(Side::kServer, far, [&](Packet&&) { arrival = h.loop.now(); });
  const Address client = h.fabric.allocate_client_address();
  h.fabric.bind(Side::kClient, client,
                [&](Packet&&) { arrival = h.loop.now(); });

  // Client -> delayed server: pays the delay on ingress.
  h.fabric.send(Side::kClient, make_packet(client, far));
  h.loop.run();
  EXPECT_EQ(arrival, 25_ms);
  // Delayed server -> client: pays the delay on egress.
  arrival = -1;
  h.fabric.send(Side::kServer, make_packet(far, client));
  h.loop.run();
  EXPECT_EQ(arrival, 50_ms);  // 25 at entry earlier + 25 more now
}

TEST(Fabric, DefaultServerHandlerInterceptsUnboundOnly) {
  FabricHarness h;
  int intercepted = 0;
  int normal = 0;
  h.fabric.set_server_default([&](Packet&&) { ++intercepted; });
  h.fabric.bind(Side::kServer, kServer, [&](Packet&&) { ++normal; });

  h.fabric.send(Side::kClient, make_packet({}, kServer));  // bound
  h.fabric.send(Side::kClient,
                make_packet({}, Address{Ipv4{99, 9, 9, 9}, 443}));  // unbound
  h.loop.run();
  EXPECT_EQ(normal, 1);
  EXPECT_EQ(intercepted, 1);
  EXPECT_EQ(h.fabric.undeliverable_packets(), 0u);
}

TEST(Fabric, RedeliverSkipsDefaultHandler) {
  // redeliver() must not loop back into the default handler: if the
  // address is still unbound it counts undeliverable instead.
  FabricHarness h;
  int intercepted = 0;
  h.fabric.set_server_default([&](Packet&& p) {
    ++intercepted;
    h.fabric.redeliver(Side::kServer, std::move(p));  // still unbound
  });
  h.fabric.send(Side::kClient, make_packet({}, kServer));
  h.loop.run();
  EXPECT_EQ(intercepted, 1);  // no infinite interception loop
  EXPECT_EQ(h.fabric.undeliverable_packets(), 1u);
}

TEST(Fabric, TwoFabricsShareNothing) {
  EventLoop loop;
  Fabric a{loop};
  Fabric b{loop};
  int a_count = 0;
  int b_count = 0;
  a.bind(Side::kServer, kServer, [&](Packet&&) { ++a_count; });
  b.bind(Side::kServer, kServer, [&](Packet&&) { ++b_count; });  // no clash
  a.send(Side::kClient, make_packet({}, kServer));
  loop.run();
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 0);
}

/// Two origins with different one-way delays, sends interleaved from both
/// sides at two instants. Each packet is released at its send time plus
/// its origin's delay; packets due at the same time leave in the order
/// their releases were scheduled (an injection is scheduled at send(), a
/// delivery when the packet exits the chain).
TEST(Fabric, PerOriginLanesKeepTheScheduledOrder) {
  FabricHarness h;
  const Address a{Ipv4{10, 0, 0, 5}, 80};
  const Address b{Ipv4{10, 0, 0, 6}, 80};
  h.fabric.set_server_delay(a.ip, 5_ms);
  h.fabric.set_server_delay(b.ip, 2_ms);
  const Address client = h.fabric.allocate_client_address();

  struct Arrival {
    Microseconds at;
    char where;
    std::uint64_t id;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<Arrival> log;
  const auto recorder = [&](char where) {
    return [&log, &h, where](Packet&& p) { log.push_back({h.loop.now(), where, p.id}); };
  };
  h.fabric.bind(Side::kServer, a, recorder('A'));
  h.fabric.bind(Side::kServer, b, recorder('B'));
  h.fabric.bind(Side::kClient, client, recorder('C'));

  h.loop.schedule_at(0, [&] {
    h.fabric.send(Side::kClient, make_packet(client, a));  // id 1: A at 5
    h.fabric.send(Side::kClient, make_packet(client, b));  // id 2: B at 2
    h.fabric.send(Side::kServer, make_packet(a, client));  // id 3: C at 5
    h.fabric.send(Side::kServer, make_packet(b, client));  // id 4: C at 2
  });
  h.loop.schedule_at(1_ms, [&] {
    h.fabric.send(Side::kClient, make_packet(client, b));  // id 5: B at 3
    h.fabric.send(Side::kServer, make_packet(a, client));  // id 6: C at 6
    h.fabric.send(Side::kClient, make_packet(client, a));  // id 7: A at 6
  });
  h.loop.run();
  // At 2 ms, id 4's injection (scheduled at 0 by send) precedes id 2's
  // delivery (scheduled at 0 when it left the chain, after send returned);
  // likewise at 5 ms (ids 3, 1) and at 6 ms (ids 6, 7).
  EXPECT_EQ(log, (std::vector<Arrival>{{2_ms, 'C', 4},
                                       {2_ms, 'B', 2},
                                       {3_ms, 'B', 5},
                                       {5_ms, 'C', 3},
                                       {5_ms, 'A', 1},
                                       {6_ms, 'C', 6},
                                       {6_ms, 'A', 7}}));

  // A delay lowered mid-flight: the later packet overtakes the earlier one.
  log.clear();
  h.loop.schedule_at(10_ms, [&] {
    h.fabric.send(Side::kClient, make_packet(client, a));  // id 8: A at 15
  });
  h.loop.schedule_at(12_ms, [&] {
    h.fabric.set_server_delay(a.ip, 1_ms);
    h.fabric.send(Side::kClient, make_packet(client, a));  // id 9: A at 13
  });
  h.loop.run();
  EXPECT_EQ(log, (std::vector<Arrival>{{13_ms, 'A', 9}, {15_ms, 'A', 8}}));
}

}  // namespace
}  // namespace mahimahi::net
