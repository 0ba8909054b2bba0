#include "net/link_log.hpp"

#include <gtest/gtest.h>

#include "net/event_loop.hpp"
#include "net/link.hpp"
#include "trace/synthesis.hpp"

namespace mahimahi::net {
namespace {

using namespace mahimahi::literals;

Packet make_packet(std::uint64_t id, std::size_t payload) {
  Packet p;
  p.id = id;
  p.tcp.payload = std::string(payload, 'x');
  return p;
}

TEST(LinkLog, TextFormatRoundTrip) {
  LinkLog log;
  log.arrival(5_ms, 1500, 1);
  log.departure(9_ms, 1500, 1);
  log.drop(12_ms, 500, 2);
  const std::string text = log.to_text();
  EXPECT_EQ(text, "5 + 1500\n9 - 1500\n12 d 500\n");
  const LinkLog parsed = LinkLog::parse(text);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.events()[0].kind, LinkLogEvent::Kind::kArrival);
  EXPECT_EQ(parsed.events()[1].kind, LinkLogEvent::Kind::kDeparture);
  EXPECT_EQ(parsed.events()[2].kind, LinkLogEvent::Kind::kDrop);
  EXPECT_EQ(parsed.events()[2].bytes, 500u);
}

TEST(LinkLog, ParseRejectsGarbage) {
  EXPECT_THROW(LinkLog::parse("5 +\n"), std::invalid_argument);
  EXPECT_THROW(LinkLog::parse("x + 1500\n"), std::invalid_argument);
  EXPECT_THROW(LinkLog::parse("5 ? 1500\n"), std::invalid_argument);
  EXPECT_THROW(LinkLog::parse("5 + banana\n"), std::invalid_argument);
  // Blank lines and comments are fine.
  EXPECT_EQ(LinkLog::parse("# header\n\n").size(), 0u);
}

TEST(LinkLogSummary, CountsAndDelays) {
  LinkLog log;
  log.arrival(0, 1500, 1);
  log.arrival(0, 1500, 2);
  log.departure(10_ms, 1500, 1);
  log.departure(30_ms, 1500, 2);
  log.arrival(40_ms, 700, 3);
  log.drop(40_ms, 700, 3);
  const auto summary = summarize_link_log(log);
  EXPECT_EQ(summary.arrivals, 3u);
  EXPECT_EQ(summary.departures, 2u);
  EXPECT_EQ(summary.drops, 1u);
  EXPECT_EQ(summary.bytes_delivered, 3000u);
  EXPECT_DOUBLE_EQ(summary.delay_p50_ms, 20.0);  // delays 10 and 30
  EXPECT_DOUBLE_EQ(summary.delay_max_ms, 30.0);
}

TEST(LinkLogSummary, EmptyLogIsZeroes) {
  const auto summary = summarize_link_log(LinkLog{});
  EXPECT_EQ(summary.arrivals, 0u);
  EXPECT_EQ(summary.bytes_delivered, 0u);
}

TEST(LinkLogSummary, ThroughputBins) {
  LinkLog log;
  // 10 x 1500B departures in the first half-second bin.
  for (int i = 0; i < 10; ++i) {
    log.arrival(i * 10_ms, 1500, 0);
    log.departure(i * 10_ms + 1_ms, 1500, 0);
  }
  const auto summary = summarize_link_log(log, 500_ms);
  ASSERT_GE(summary.throughput_bins_bps.size(), 1u);
  // 15000 bytes in 0.5 s = 240 kbit/s.
  EXPECT_NEAR(summary.throughput_bins_bps[0], 240e3, 1.0);
}

TEST(TraceLinkLogging, RecordsArrivalsDeparturesAndDrops) {
  EventLoop loop;
  TraceLink link{loop, trace::PacketTrace{{10_ms, 20_ms}},
                 trace::PacketTrace{{10_ms, 20_ms}},
                 QueueSpec{.discipline = "droptail", .max_packets = 1},
                 QueueSpec{}};
  link.enable_logging();
  link.set_forward(Direction::kUplink, [](Packet&&) {});
  link.set_forward(Direction::kDownlink, [](Packet&&) {});

  loop.schedule_at(0, [&] {
    link.process(make_packet(1, 100), Direction::kUplink);
    link.process(make_packet(2, 100), Direction::kUplink);  // dropped (cap 1)
  });
  loop.run();

  const LinkLog& up = link.log(Direction::kUplink);
  const auto summary = summarize_link_log(up);
  EXPECT_EQ(summary.arrivals, 2u);
  EXPECT_EQ(summary.departures, 1u);
  EXPECT_EQ(summary.drops, 1u);
  // Packet 1 arrived at 0, departed at the 10 ms opportunity.
  EXPECT_DOUBLE_EQ(summary.delay_p50_ms, 10.0);
}

TEST(TraceLinkLogging, MatchesDeliveredCounters) {
  EventLoop loop;
  TraceLink link{loop, trace::constant_rate(10e6, 1_s),
                 trace::constant_rate(10e6, 1_s)};
  link.enable_logging();
  link.set_forward(Direction::kUplink, [](Packet&&) {});
  link.set_forward(Direction::kDownlink, [](Packet&&) {});
  loop.schedule_at(0, [&] {
    for (int i = 0; i < 20; ++i) {
      link.process(make_packet(static_cast<std::uint64_t>(i), 1000),
                   Direction::kUplink);
    }
  });
  loop.run();
  const auto summary = summarize_link_log(link.log(Direction::kUplink));
  EXPECT_EQ(summary.departures, link.uplink().delivered_packets());
  EXPECT_EQ(summary.bytes_delivered, link.uplink().delivered_bytes());
}

}  // namespace
}  // namespace mahimahi::net
