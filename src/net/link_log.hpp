#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/statistics.hpp"
#include "util/time.hpp"

namespace mahimahi::net {

/// Why a queue dropped a packet: capacity overflow (droptail/drophead/
/// bounded-AQM tail limits) vs an AQM control-law decision (CoDel, PIE).
/// Logs parsed back from text carry kUnknown (the text format predates
/// reasons and stays mahimahi-compatible).
enum class DropReason : std::uint8_t { kUnknown, kOverflow, kAqm };

[[nodiscard]] std::string_view to_string(DropReason reason);

/// One event in a link log — mahimahi's mm-link --uplink-log/--downlink-log
/// records arrivals (+), departures (-) and drops (d) with millisecond
/// timestamps and byte counts.
struct LinkLogEvent {
  enum class Kind : char { kArrival = '+', kDeparture = '-', kDrop = 'd' };
  Microseconds at{0};
  Kind kind{Kind::kArrival};
  std::uint32_t bytes{0};
  std::uint64_t packet_id{0};
  DropReason reason{DropReason::kUnknown};  // meaningful for kDrop only
};

/// In-memory per-direction link log with mahimahi-compatible text output.
class LinkLog {
 public:
  void arrival(Microseconds at, std::uint32_t bytes, std::uint64_t id);
  void departure(Microseconds at, std::uint32_t bytes, std::uint64_t id);
  void drop(Microseconds at, std::uint32_t bytes, std::uint64_t id,
            DropReason reason = DropReason::kUnknown);

  [[nodiscard]] const std::vector<LinkLogEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// mahimahi log format: one event per line, "<ms> <+|-|d> <bytes>".
  [[nodiscard]] std::string to_text() const;

  /// Parse the text format back (round-trip; packet ids are not stored).
  static LinkLog parse(std::string_view text);

 private:
  void add(Microseconds at, LinkLogEvent::Kind kind, std::uint32_t bytes,
           std::uint64_t id, DropReason reason = DropReason::kUnknown);
  std::vector<LinkLogEvent> events_;
};

/// Summary statistics computed from a link log — what mm-throughput-graph
/// and mm-delay-graph plot.
struct LinkLogSummary {
  std::uint64_t arrivals{0};
  std::uint64_t departures{0};
  std::uint64_t drops{0};
  /// Drops split by reason (drops == overflow + aqm + unknown; parsed
  /// text logs land in unknown).
  std::uint64_t drops_overflow{0};
  std::uint64_t drops_aqm{0};
  std::uint64_t drops_unknown{0};
  /// High-water mark of the queue, reconstructed by replaying the event
  /// stream (+1 at arrival, -1 at departure/drop). The arriving packet
  /// counts at its arrival instant, so a droptail overflow registers the
  /// full queue plus the packet it turned away.
  std::uint64_t queue_high_water_packets{0};
  std::uint64_t queue_high_water_bytes{0};
  std::uint64_t bytes_delivered{0};
  double average_throughput_bps{0};
  /// Per-packet queueing delay (arrival -> departure) percentiles, ms.
  double delay_p50_ms{0};
  double delay_p95_ms{0};
  double delay_max_ms{0};
  /// Throughput per time bin (bps), for plotting.
  std::vector<double> throughput_bins_bps;
  Microseconds bin_width{0};
};

/// Analyze a log. Delays are matched arrival->departure by packet id when
/// ids are present, else FIFO order (the disciplines shipped are FIFO).
LinkLogSummary summarize_link_log(const LinkLog& log,
                                  Microseconds bin_width = 500'000);

}  // namespace mahimahi::net
