#include "net/link_log.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/link.hpp"
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

/// Every field, bit for bit (doubles included).
void expect_same(const LinkLogSummary& got, const LinkLogSummary& want) {
  EXPECT_EQ(got.arrivals, want.arrivals);
  EXPECT_EQ(got.departures, want.departures);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_EQ(got.drops_overflow, want.drops_overflow);
  EXPECT_EQ(got.drops_aqm, want.drops_aqm);
  EXPECT_EQ(got.drops_unknown, want.drops_unknown);
  EXPECT_EQ(got.queue_high_water_packets, want.queue_high_water_packets);
  EXPECT_EQ(got.queue_high_water_bytes, want.queue_high_water_bytes);
  EXPECT_EQ(got.bytes_delivered, want.bytes_delivered);
  EXPECT_EQ(got.average_throughput_bps, want.average_throughput_bps);
  EXPECT_EQ(got.delay_p50_ms, want.delay_p50_ms);
  EXPECT_EQ(got.delay_p95_ms, want.delay_p95_ms);
  EXPECT_EQ(got.delay_max_ms, want.delay_max_ms);
  EXPECT_EQ(got.throughput_bins_bps, want.throughput_bins_bps);
  EXPECT_EQ(got.bin_width, want.bin_width);
}

// --- the batch reducer LinkStats replaced, kept as the reference ---------

struct RefEvent {
  enum class Kind : char { kArrival = '+', kDeparture = '-', kDrop = 'd' };
  Microseconds at{0};
  Kind kind{Kind::kArrival};
  std::uint32_t bytes{0};
  std::uint64_t packet_id{0};
  DropReason reason{DropReason::kUnknown};
};

/// Reduce a recorded event list in two passes: counts, depth replay and
/// id/FIFO delay matching, then throughput bins sized by the last event.
LinkLogSummary reference_summary(const std::vector<RefEvent>& events,
                                 Microseconds bin_width) {
  LinkLogSummary summary;
  summary.bin_width = bin_width;
  if (events.empty()) {
    return summary;
  }
  std::unordered_map<std::uint64_t, Microseconds> by_id;
  std::deque<Microseconds> fifo;
  util::Samples delays_ms;
  Microseconds last_time = 0;
  std::uint64_t depth_packets = 0;
  std::uint64_t depth_bytes = 0;
  for (const auto& event : events) {
    last_time = std::max(last_time, event.at);
    switch (event.kind) {
      case RefEvent::Kind::kArrival:
        ++summary.arrivals;
        ++depth_packets;
        depth_bytes += event.bytes;
        summary.queue_high_water_packets =
            std::max(summary.queue_high_water_packets, depth_packets);
        summary.queue_high_water_bytes =
            std::max(summary.queue_high_water_bytes, depth_bytes);
        if (event.packet_id != 0) {
          by_id[event.packet_id] = event.at;
        } else {
          fifo.push_back(event.at);
        }
        break;
      case RefEvent::Kind::kDeparture: {
        ++summary.departures;
        summary.bytes_delivered += event.bytes;
        if (depth_packets > 0) {
          --depth_packets;
        }
        depth_bytes -= std::min<std::uint64_t>(depth_bytes, event.bytes);
        Microseconds arrived = -1;
        if (event.packet_id != 0) {
          if (const auto it = by_id.find(event.packet_id); it != by_id.end()) {
            arrived = it->second;
            by_id.erase(it);
          }
        } else if (!fifo.empty()) {
          arrived = fifo.front();
          fifo.pop_front();
        }
        if (arrived >= 0) {
          delays_ms.add(to_ms(event.at - arrived));
        }
        break;
      }
      case RefEvent::Kind::kDrop:
        ++summary.drops;
        switch (event.reason) {
          case DropReason::kOverflow:
            ++summary.drops_overflow;
            break;
          case DropReason::kAqm:
            ++summary.drops_aqm;
            break;
          case DropReason::kUnknown:
            ++summary.drops_unknown;
            break;
        }
        if (depth_packets > 0) {
          --depth_packets;
        }
        depth_bytes -= std::min<std::uint64_t>(depth_bytes, event.bytes);
        break;
    }
  }
  if (!delays_ms.empty()) {
    summary.delay_p50_ms = delays_ms.median();
    summary.delay_p95_ms = delays_ms.percentile(95);
    summary.delay_max_ms = delays_ms.max();
  }
  if (last_time > 0) {
    summary.average_throughput_bps =
        static_cast<double>(summary.bytes_delivered) * 8.0 /
        (static_cast<double>(last_time) / 1e6);
    summary.throughput_bins_bps.assign(
        static_cast<std::size_t>(last_time / bin_width) + 1, 0.0);
    for (const auto& event : events) {
      if (event.kind == RefEvent::Kind::kDeparture) {
        summary.throughput_bins_bps[static_cast<std::size_t>(event.at /
                                                             bin_width)] +=
            static_cast<double>(event.bytes) * 8.0;
      }
    }
    for (double& bin : summary.throughput_bins_bps) {
      bin /= static_cast<double>(bin_width) / 1e6;
    }
  }
  return summary;
}

LinkLogSummary fold(const std::vector<RefEvent>& events,
                    Microseconds bin_width) {
  LinkStats stats{bin_width};
  for (const auto& event : events) {
    switch (event.kind) {
      case RefEvent::Kind::kArrival:
        stats.arrival(event.at, event.bytes, event.packet_id);
        break;
      case RefEvent::Kind::kDeparture:
        stats.departure(event.at, event.bytes, event.packet_id);
        break;
      case RefEvent::Kind::kDrop:
        stats.drop(event.at, event.bytes, event.packet_id, event.reason);
        break;
    }
  }
  return stats.summary();
}

/// A random queue history shaped like the ones LinkQueue reports: FIFO
/// departures, overflow drops of the arriving packet, drophead drops
/// logged under the *arriving* id (the head leaves, the arrival departs
/// later), CoDel runs of id-0 drops whose first record carries the
/// aggregate bytes, id-0 (text-log) stretches, repeated ids, unmatched
/// departures and idle gaps.
std::vector<RefEvent> random_script(util::Rng& rng) {
  using Kind = RefEvent::Kind;
  std::vector<RefEvent> events;
  std::deque<std::pair<std::uint64_t, std::uint32_t>> queue;  // id, bytes
  const double id0_share = rng.chance(0.3) ? 1.0 : rng.uniform(0.0, 0.2);
  std::uint64_t next_id = 1;
  Microseconds now = 0;
  const auto steps = 20 + rng.next() % 600;
  for (std::uint64_t step = 0; step < steps; ++step) {
    now += rng.chance(0.03)
               ? 300'000 + static_cast<Microseconds>(rng.next() % 2'000'000)
               : static_cast<Microseconds>(rng.next() % 4'000);
    const double roll = rng.uniform();
    if (roll < 0.45) {
      std::uint64_t id = rng.chance(id0_share) ? 0 : next_id++;
      if (id != 0 && next_id > 3 && rng.chance(0.02)) {
        id = 1 + rng.next() % (next_id - 1);  // a duplicated packet
      }
      const auto bytes = static_cast<std::uint32_t>(40 + rng.next() % 1461);
      events.push_back({now, Kind::kArrival, bytes, id});
      queue.emplace_back(id, bytes);
      if (rng.chance(0.1)) {  // droptail: the arrival is turned away
        events.push_back({now, Kind::kDrop, bytes, id, DropReason::kOverflow});
        queue.pop_back();
      } else if (queue.size() > 1 && rng.chance(0.08)) {  // drophead
        events.push_back({now, Kind::kDrop, bytes, id, DropReason::kOverflow});
        queue.pop_front();
      }
    } else if (roll < 0.85) {
      if (!queue.empty()) {
        events.push_back(
            {now, Kind::kDeparture, queue.front().second, queue.front().first});
        queue.pop_front();
      }
    } else if (roll < 0.95) {  // CoDel: a run of dequeue-time drops
      const auto run = std::min<std::size_t>(1 + rng.next() % 3, queue.size());
      std::uint32_t aggregate = 0;
      for (std::size_t i = 0; i < run; ++i) {
        aggregate += queue.front().second;
        queue.pop_front();
      }
      for (std::size_t i = 0; i < run; ++i) {
        events.push_back({now, Kind::kDrop, i == 0 ? aggregate : 0u, 0,
                          DropReason::kAqm});
      }
    } else {  // an event no queue model predicts
      const auto kind = static_cast<int>(rng.next() % 3);
      const std::uint64_t id = rng.chance(0.5) ? 0 : rng.next() % (next_id + 5);
      const auto bytes = static_cast<std::uint32_t>(rng.next() % 3000);
      events.push_back({now,
                        kind == 0   ? Kind::kArrival
                        : kind == 1 ? Kind::kDeparture
                                    : Kind::kDrop,
                        bytes, id,
                        static_cast<DropReason>(rng.next() % 3)});
    }
  }
  return events;
}

// --- text format ----------------------------------------------------------

TEST(LinkLog, ParseFoldsTheTextFormat) {
  const LinkStats parsed = LinkStats::parse("5 + 1500\n9 - 1500\n12 d 500\n");
  EXPECT_EQ(parsed.events(), 3u);
  const LinkLogSummary summary = parsed.summary();
  EXPECT_EQ(summary.arrivals, 1u);
  EXPECT_EQ(summary.departures, 1u);
  EXPECT_EQ(summary.drops, 1u);
  EXPECT_EQ(summary.drops_unknown, 1u);  // text carries no drop reason
  EXPECT_EQ(summary.bytes_delivered, 1500u);
  EXPECT_EQ(summary.queue_high_water_bytes, 1500u);
  EXPECT_DOUBLE_EQ(summary.delay_p50_ms, 4.0);  // FIFO-matched 5 -> 9 ms
}

TEST(LinkLog, ParseRejectsGarbage) {
  EXPECT_THROW(LinkStats::parse("5 +\n"), std::invalid_argument);
  EXPECT_THROW(LinkStats::parse("x + 1500\n"), std::invalid_argument);
  EXPECT_THROW(LinkStats::parse("5 ? 1500\n"), std::invalid_argument);
  EXPECT_THROW(LinkStats::parse("5 + banana\n"), std::invalid_argument);
  // Blank lines and comments are fine.
  EXPECT_EQ(LinkStats::parse("# header\n\n").events(), 0u);
}

TEST(LinkLog, RejectsNonPositiveBinWidth) {
  EXPECT_THROW(LinkStats{0}, std::invalid_argument);
  EXPECT_THROW(LinkStats{-5'000}, std::invalid_argument);
  EXPECT_THROW(LinkStats::parse("5 + 1500\n", 0), std::invalid_argument);
  EXPECT_EQ(LinkStats{1}.summary().bin_width, 1);
}

// --- the fold -------------------------------------------------------------

TEST(LinkLogSummary, CountsAndDelays) {
  LinkStats log;
  log.arrival(0, 1500, 1);
  log.arrival(0, 1500, 2);
  log.departure(10_ms, 1500, 1);
  log.departure(30_ms, 1500, 2);
  log.arrival(40_ms, 700, 3);
  log.drop(40_ms, 700, 3);
  const auto summary = log.summary();
  EXPECT_EQ(summary.arrivals, 3u);
  EXPECT_EQ(summary.departures, 2u);
  EXPECT_EQ(summary.drops, 1u);
  EXPECT_EQ(summary.bytes_delivered, 3000u);
  EXPECT_DOUBLE_EQ(summary.delay_p50_ms, 20.0);  // delays 10 and 30
  EXPECT_DOUBLE_EQ(summary.delay_max_ms, 30.0);
}

TEST(LinkLogSummary, ThroughputBins) {
  LinkStats log{500_ms};
  // 10 x 1500B departures in the first half-second bin.
  for (int i = 0; i < 10; ++i) {
    log.arrival(i * 10_ms, 1500, 0);
    log.departure(i * 10_ms + 1_ms, 1500, 0);
  }
  const auto summary = log.summary();
  ASSERT_GE(summary.throughput_bins_bps.size(), 1u);
  // 15000 bytes in 0.5 s = 240 kbit/s.
  EXPECT_NEAR(summary.throughput_bins_bps[0], 240e3, 1.0);
}

TEST(LinkLogSummary, DropKeepsTheArrivingPacketsStamp) {
  // Drophead: the drop is logged under the arriving packet's id, and that
  // packet departs later — its delay must still be measured.
  LinkStats log;
  log.arrival(0, 1000, 1);
  log.arrival(5_ms, 1000, 2);
  log.drop(5_ms, 1000, 2, DropReason::kOverflow);  // packet 1 left the head
  log.departure(12_ms, 1000, 2);
  // CoDel: a dequeue-time drop carries id 0 and must not consume the
  // FIFO stamp of an id-0 arrival.
  log.arrival(20_ms, 500, 0);
  log.drop(21_ms, 400, 0, DropReason::kAqm);
  log.departure(26_ms, 500, 0);
  const auto summary = log.summary();
  EXPECT_EQ(summary.departures, 2u);
  EXPECT_DOUBLE_EQ(summary.delay_p50_ms, 6.5);  // delays 7 and 6
  EXPECT_DOUBLE_EQ(summary.delay_max_ms, 7.0);
}

TEST(LinkLogSummary, FoldMatchesTheBatchReducerOnRandomScripts) {
  util::Rng rng{2026};
  constexpr Microseconds kBinWidths[] = {1_ms, 100_ms, 500_ms, 1_s};
  for (int script = 0; script < 200; ++script) {
    const std::vector<RefEvent> events = random_script(rng);
    const Microseconds bin_width = kBinWidths[rng.next() % 4];
    SCOPED_TRACE("script " + std::to_string(script) + ", " +
                 std::to_string(events.size()) + " events");
    expect_same(fold(events, bin_width),
                reference_summary(events, bin_width));
  }
}

// --- pinned summaries (computed with the batch reducer) -----------------

/// 3000 packets of 328-1228 wire bytes offered at 1 per ms — about twice
/// the 4 Mbit/s uplink — with a 400 ms idle gap halfway.
LinkLogSummary live_run(const QueueSpec& queue) {
  EventLoop loop;
  TraceLink link{loop, trace::constant_rate(4e6, 1_s),
                 trace::constant_rate(4e6, 1_s), queue, QueueSpec{}};
  link.enable_summary(Direction::kUplink);
  link.set_forward(Direction::kUplink, [](Packet&&) {});
  link.set_forward(Direction::kDownlink, [](Packet&&) {});
  for (int k = 0; k < 3000; ++k) {
    const Microseconds at = k * 1_ms + (k >= 1500 ? 400_ms : 0);
    loop.schedule_at(at, [&link, k] {
      link.process(make_packet(static_cast<std::uint64_t>(k) + 1,
                               static_cast<std::size_t>(300 + (k % 7) * 150)),
                   Direction::kUplink);
    });
  }
  loop.run();
  return link.summary(Direction::kUplink);
}

TEST(LinkLogPinned, DroptailOverflow) {
  expect_same(
      live_run(QueueSpec{.discipline = "droptail", .max_packets = 24}),
      {.arrivals = 3000, .departures = 1046, .drops = 1954,
       .drops_overflow = 1954, .drops_aqm = 0, .drops_unknown = 0,
       .queue_high_water_packets = 25, .queue_high_water_bytes = 21250,
       .bytes_delivered = 838742, .average_throughput_bps = 1934814.3021914649,
       .delay_p50_ms = 71, .delay_p95_ms = 71, .delay_max_ms = 71,
       .throughput_bins_bps = {2122912, 2150144, 2132512, 733824, 2140544,
                               2127712, 2012224},
       .bin_width = 500000});
}

TEST(LinkLogPinned, Drophead) {
  expect_same(
      live_run(QueueSpec{.discipline = "drophead", .max_packets = 24}),
      {.arrivals = 3000, .departures = 1046, .drops = 1954,
       .drops_overflow = 1954, .drops_aqm = 0, .drops_unknown = 0,
       .queue_high_water_packets = 25, .queue_high_water_bytes = 21250,
       .bytes_delivered = 838142, .average_throughput_bps = 1933430.2191464822,
       .delay_p50_ms = 23, .delay_p95_ms = 23, .delay_max_ms = 70,
       .throughput_bins_bps = {2122912, 2135744, 2137312, 724224, 2150144,
                               2132512, 2007424},
       .bin_width = 500000});
}

TEST(LinkLogPinned, Pie) {
  expect_same(
      live_run(QueueSpec{.discipline = "pie"}),
      {.arrivals = 3000, .departures = 1107, .drops = 1893,
       .drops_overflow = 0, .drops_aqm = 1893, .drops_unknown = 0,
       .queue_high_water_packets = 222, .queue_high_water_bytes = 180144,
       .bytes_delivered = 886914, .average_throughput_bps = 2080126.6490765172,
       .delay_p50_ms = 62, .delay_p95_ms = 626.40000000000009,
       .delay_max_ms = 662,
       .throughput_bins_bps = {2120512, 2159744, 2144512, 1777184, 2157344,
                               2122912, 1708416},
       .bin_width = 500000});
}

TEST(LinkLogPinned, Codel) {
  expect_same(
      live_run(QueueSpec{.discipline = "codel"}),
      {.arrivals = 3000, .departures = 2047, .drops = 953,
       .drops_overflow = 0, .drops_aqm = 953, .drops_unknown = 0,
       .queue_high_water_packets = 1573, .queue_high_water_bytes = 1261194,
       .bytes_delivered = 1635544, .average_throughput_bps = 2130654.9421918252,
       .delay_p50_ms = 1722, .delay_p95_ms = 2628.3999999999996,
       .delay_max_ms = 2742,
       .throughput_bins_bps = {2132512, 2135744, 2151712, 2186144, 2147744,
                               2096512, 2138144, 2159744, 2098912, 2049344,
                               2118944, 2130112, 623136},
       .bin_width = 500000});
}

TEST(LinkLogPinned, ParsedTextMatchesFifo) {
  // No ids: departures match arrivals in FIFO order, and a drop pops no
  // stamp (so after a drop the matching runs one arrival behind).
  const char* text =
      "# a parsed log carries no packet ids\n"
      "0 + 1500\n0 + 1500\n0 + 600\n4 - 1500\n7 d 600\n9 - 1500\n"
      "12 + 1200\n12 + 1500\n13 d 1500\n20 - 1200\n"
      "900 + 400\n901 - 400\n1400 + 1500\n1404 - 1500\n";
  expect_same(
      LinkStats::parse(text, 250_ms).summary(),
      {.arrivals = 7, .departures = 5, .drops = 2,
       .drops_overflow = 0, .drops_aqm = 0, .drops_unknown = 2,
       .queue_high_water_packets = 3, .queue_high_water_bytes = 3600,
       .bytes_delivered = 6100, .average_throughput_bps = 34757.83475783476,
       .delay_p50_ms = 20, .delay_p95_ms = 1291.3999999999999,
       .delay_max_ms = 1392,
       .throughput_bins_bps = {134400, 0, 0, 12800, 0, 48000},
       .bin_width = 250000});
}

TEST(LinkLogPinned, EmptyLog) {
  expect_same(LinkStats{}.summary(), {.bin_width = 500000});
}

// --- live links -----------------------------------------------------------

TEST(TraceLinkLogging, RecordsArrivalsDeparturesAndDrops) {
  EventLoop loop;
  TraceLink link{loop, trace::PacketTrace{{10_ms, 20_ms}},
                 trace::PacketTrace{{10_ms, 20_ms}},
                 QueueSpec{.discipline = "droptail", .max_packets = 1},
                 QueueSpec{}};
  link.enable_summary(Direction::kUplink);
  link.set_forward(Direction::kUplink, [](Packet&&) {});
  link.set_forward(Direction::kDownlink, [](Packet&&) {});

  loop.schedule_at(0, [&] {
    link.process(make_packet(1, 100), Direction::kUplink);
    link.process(make_packet(2, 100), Direction::kUplink);  // dropped (cap 1)
  });
  loop.run();

  const auto summary = link.summary(Direction::kUplink);
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
  link.enable_summary(Direction::kUplink);
  link.set_forward(Direction::kUplink, [](Packet&&) {});
  link.set_forward(Direction::kDownlink, [](Packet&&) {});
  loop.schedule_at(0, [&] {
    for (int i = 0; i < 20; ++i) {
      link.process(make_packet(static_cast<std::uint64_t>(i), 1000),
                   Direction::kUplink);
    }
  });
  loop.run();
  const auto summary = link.summary(Direction::kUplink);
  EXPECT_EQ(summary.departures, link.uplink().delivered_packets());
  EXPECT_EQ(summary.bytes_delivered, link.uplink().delivered_bytes());
}

TEST(TraceLinkLogging, DownlinkSummaryCountsOnlyDownlinkPackets) {
  EventLoop loop;
  TraceLink link{loop, trace::constant_rate(10e6, 1_s),
                 trace::constant_rate(10e6, 1_s)};
  link.enable_summary(Direction::kDownlink);
  link.set_forward(Direction::kUplink, [](Packet&&) {});
  link.set_forward(Direction::kDownlink, [](Packet&&) {});
  loop.schedule_at(0, [&] {
    link.process(make_packet(1, 1000), Direction::kUplink);
    link.process(make_packet(2, 1000), Direction::kDownlink);
    link.process(make_packet(3, 1000), Direction::kDownlink);
  });
  loop.run();
  EXPECT_EQ(link.summary(Direction::kDownlink).departures, 2u);
  EXPECT_EQ(link.summary(Direction::kDownlink).arrivals, 2u);
}

}  // namespace
}  // namespace mahimahi::net
