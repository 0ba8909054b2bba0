#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
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

/// Summary statistics of one link direction — what mm-throughput-graph
/// and mm-delay-graph plot from mahimahi's --uplink-log/--downlink-log.
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

/// One link direction's log (mahimahi's mm-link --uplink-log/--downlink-
/// log: arrivals, departures and drops with byte counts), folded into a
/// LinkLogSummary as the events happen. No event list is kept: the fold
/// holds an arrival stamp per packet still queued, one delay sample per
/// departure and one throughput bin per `bin_width` of departures.
///
/// Delays are matched arrival -> departure by packet id when ids are
/// present, else in FIFO order (the disciplines shipped are FIFO). A drop
/// releases no stamp: a drophead queue reports its drop under the
/// *arriving* packet's id, and that packet departs later; a CoDel
/// dequeue-time drop carries id 0 and the aggregate dropped bytes.
class LinkStats {
 public:
  /// Throws std::invalid_argument unless bin_width > 0.
  explicit LinkStats(Microseconds bin_width = 500'000);

  void arrival(Microseconds at, std::uint32_t bytes, std::uint64_t id);
  void departure(Microseconds at, std::uint32_t bytes, std::uint64_t id);
  void drop(Microseconds at, std::uint32_t bytes, std::uint64_t id,
            DropReason reason = DropReason::kUnknown);

  /// Events folded so far (arrivals + departures + drops).
  [[nodiscard]] std::uint64_t events() const {
    return summary_.arrivals + summary_.departures + summary_.drops;
  }

  [[nodiscard]] LinkLogSummary summary() const;

  /// Fold mahimahi's text format, one event per line "<ms> <+|-|d>
  /// <bytes>" (no packet ids, so delays match in FIFO order). Blank lines
  /// and '#' comments are skipped; throws std::invalid_argument on a
  /// malformed line.
  static LinkStats parse(std::string_view text,
                         Microseconds bin_width = 500'000);

 private:
  /// Counts, reasons, high-water marks and bytes_delivered accumulate
  /// here directly; summary() adds the derived fields.
  LinkLogSummary summary_;
  std::unordered_map<std::uint64_t, Microseconds> queued_by_id_;
  std::deque<Microseconds> queued_fifo_;  // arrivals with id 0
  util::Samples delays_ms_;
  std::vector<double> departed_bits_;  // per bin_width, grown on departure
  Microseconds last_time_{0};
  std::uint64_t depth_packets_{0};
  std::uint64_t depth_bytes_{0};
};

}  // namespace mahimahi::net
