#include "net/link.hpp"

#include <gtest/gtest.h>

#include "net/event_loop.hpp"
#include "trace/synthesis.hpp"
#include "util/random.hpp"

namespace mahimahi::net {
namespace {

using namespace mahimahi::literals;

Packet make_packet(std::uint64_t id, std::size_t payload) {
  Packet p;
  p.id = id;
  p.tcp.payload = std::string(payload, 'x');
  return p;
}

struct LinkHarness {
  EventLoop loop;
  std::vector<std::pair<std::uint64_t, Microseconds>> delivered;
  std::unique_ptr<LinkQueue> link;

  explicit LinkHarness(trace::PacketTrace trace,
                       std::unique_ptr<PacketQueue> queue =
                           std::make_unique<InfiniteQueue>()) {
    link = std::make_unique<LinkQueue>(
        loop, std::move(trace), std::move(queue),
        [this](Packet&& p) { delivered.emplace_back(p.id, loop.now()); });
  }
};

TEST(LinkQueue, PacketWaitsForNextOpportunity) {
  // Opportunities at 10, 20, 30 ms.
  LinkHarness h{trace::PacketTrace{{10_ms, 20_ms, 30_ms}}};
  h.loop.schedule_at(1_ms, [&] { h.link->accept(make_packet(1, 100)); });
  h.loop.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second, 10_ms);
}

TEST(LinkQueue, MissedOpportunitiesAreNotBanked) {
  // Opportunities at 10 and 20 ms pass unused; a packet arriving at 25 ms
  // must wait for the next lap (trace period 20 ms -> opportunity at 30 ms).
  LinkHarness h{trace::PacketTrace{{10_ms, 20_ms}}};
  h.loop.schedule_at(25_ms, [&] { h.link->accept(make_packet(1, 100)); });
  h.loop.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second, 30_ms);
}

TEST(LinkQueue, ArrivalAfterAnIdleGapTakesTheFirstOpportunityAtOrAfterIt) {
  // Opportunities at 10, 20 and 30 ms of every 30 ms lap.
  LinkHarness h{trace::PacketTrace{{10_ms, 20_ms, 30_ms}}};
  // The first packet leaves at 10 ms; the link then idles for longer than
  // a lap. The second arrives exactly at lap 2's last opportunity (90 ms,
  // on the lap boundary), the third while the next one (100 ms) is still
  // ahead, the fourth after another multi-lap gap.
  h.loop.schedule_at(0, [&] { h.link->accept(make_packet(1, 100)); });
  h.loop.schedule_at(90_ms, [&] { h.link->accept(make_packet(2, 100)); });
  h.loop.schedule_at(91_ms, [&] { h.link->accept(make_packet(3, 100)); });
  h.loop.schedule_at(195_ms, [&] { h.link->accept(make_packet(4, 100)); });
  h.loop.run();
  EXPECT_EQ(h.delivered, (std::vector<std::pair<std::uint64_t, Microseconds>>{
                             {1, 10_ms}, {2, 90_ms}, {3, 100_ms}, {4, 200_ms}}));
}

TEST(LinkQueue, BackToBackPacketsUseConsecutiveOpportunities) {
  LinkHarness h{trace::PacketTrace{{10_ms, 20_ms, 30_ms, 40_ms}}};
  h.loop.schedule_at(0, [&] {
    h.link->accept(make_packet(1, 100));
    h.link->accept(make_packet(2, 100));
    h.link->accept(make_packet(3, 100));
  });
  h.loop.run();
  ASSERT_EQ(h.delivered.size(), 3u);
  EXPECT_EQ(h.delivered[0].second, 10_ms);
  EXPECT_EQ(h.delivered[1].second, 20_ms);
  EXPECT_EQ(h.delivered[2].second, 30_ms);
}

TEST(LinkQueue, TraceRepeatsWithPeriodShift) {
  // Period = 20 ms; opportunities at 10, 20, then (lap 2) 30, 40, ...
  LinkHarness h{trace::PacketTrace{{10_ms, 20_ms}}};
  for (int i = 0; i < 4; ++i) {
    h.loop.schedule_at(0, [&h, i] { h.link->accept(make_packet(
        static_cast<std::uint64_t>(i), 100)); });
  }
  h.loop.run();
  ASSERT_EQ(h.delivered.size(), 4u);
  EXPECT_EQ(h.delivered[0].second, 10_ms);
  EXPECT_EQ(h.delivered[1].second, 20_ms);
  EXPECT_EQ(h.delivered[2].second, 30_ms);
  EXPECT_EQ(h.delivered[3].second, 40_ms);
}

TEST(LinkQueue, MultipleOpportunitiesAtSameTimestamp) {
  // Two opportunities at 10 ms deliver two packets at once.
  LinkHarness h{trace::PacketTrace{{10_ms, 10_ms, 20_ms}}};
  h.loop.schedule_at(0, [&] {
    h.link->accept(make_packet(1, 100));
    h.link->accept(make_packet(2, 100));
  });
  h.loop.run();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[0].second, 10_ms);
  EXPECT_EQ(h.delivered[1].second, 10_ms);
}

TEST(LinkQueue, ThroughputMatchesTraceRate) {
  // 8 Mbit/s constant trace: 1500-byte packets leave every 1.5 ms.
  LinkHarness h{trace::constant_rate(8e6, 1_s)};
  const int n = 100;
  h.loop.schedule_at(0, [&] {
    for (int i = 0; i < n; ++i) {
      h.link->accept(make_packet(static_cast<std::uint64_t>(i),
                                 kMss));  // MTU-sized on the wire
    }
  });
  h.loop.run();
  ASSERT_EQ(h.delivered.size(), static_cast<std::size_t>(n));
  const Microseconds span = h.delivered.back().second - h.delivered.front().second;
  const double achieved_bps =
      static_cast<double>((n - 1) * kMtuBytes * 8) / (static_cast<double>(span) / 1e6);
  EXPECT_NEAR(achieved_bps, 8e6, 8e6 * 0.02);
}

TEST(LinkQueue, SmallPacketsStillConsumeOneOpportunityEach) {
  // mahimahi delivers at most one packet per opportunity, however small.
  LinkHarness h{trace::PacketTrace{{10_ms, 20_ms, 30_ms}}};
  h.loop.schedule_at(0, [&] {
    h.link->accept(make_packet(1, 1));
    h.link->accept(make_packet(2, 1));
  });
  h.loop.run();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[0].second, 10_ms);
  EXPECT_EQ(h.delivered[1].second, 20_ms);
}

TEST(LinkQueue, DropTailDropsWhenSaturated) {
  LinkHarness h{trace::PacketTrace{{100_ms, 200_ms}},
                std::make_unique<DropTailQueue>(2, 0)};
  h.loop.schedule_at(0, [&] {
    for (int i = 0; i < 5; ++i) {
      h.link->accept(make_packet(static_cast<std::uint64_t>(i), 100));
    }
  });
  h.loop.run_until(1_s);
  EXPECT_EQ(h.link->queue().drops(), 3u);
}

TEST(TraceLink, DirectionsAreIndependent) {
  EventLoop loop;
  // Uplink: opportunity every 10 ms. Downlink: every 1 ms (10x faster).
  TraceLink link{loop, trace::PacketTrace{{10_ms}},
                 trace::constant_rate(12e6, 100_ms)};
  std::vector<Microseconds> up_times, down_times;
  link.set_forward(Direction::kUplink,
                   [&](Packet&&) { up_times.push_back(loop.now()); });
  link.set_forward(Direction::kDownlink,
                   [&](Packet&&) { down_times.push_back(loop.now()); });
  loop.schedule_at(0, [&] {
    for (int i = 0; i < 5; ++i) {
      link.process(make_packet(static_cast<std::uint64_t>(i), kMss),
                   Direction::kUplink);
      link.process(make_packet(static_cast<std::uint64_t>(100 + i), kMss),
                   Direction::kDownlink);
    }
  });
  loop.run();
  ASSERT_EQ(up_times.size(), 5u);
  ASSERT_EQ(down_times.size(), 5u);
  EXPECT_GT(up_times.back(), down_times.back());  // uplink is the slow one
}

TEST(LinkQueue, CountersTrackDeliveries) {
  LinkHarness h{trace::PacketTrace{{10_ms, 20_ms}}};
  h.loop.schedule_at(0, [&] { h.link->accept(make_packet(1, 500)); });
  h.loop.run();
  EXPECT_EQ(h.link->delivered_packets(), 1u);
  EXPECT_EQ(h.link->delivered_bytes(), 500 + kTcpHeaderBytes);
}

}  // namespace
}  // namespace mahimahi::net
