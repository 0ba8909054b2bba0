#include "net/link_log.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/strings.hpp"

namespace mahimahi::net {

std::string_view to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kOverflow:
      return "overflow";
    case DropReason::kAqm:
      return "aqm";
    case DropReason::kUnknown:
      break;
  }
  return "unknown";
}

void LinkLog::add(Microseconds at, LinkLogEvent::Kind kind, std::uint32_t bytes,
                  std::uint64_t id, DropReason reason) {
  events_.push_back(LinkLogEvent{at, kind, bytes, id, reason});
}

void LinkLog::arrival(Microseconds at, std::uint32_t bytes, std::uint64_t id) {
  add(at, LinkLogEvent::Kind::kArrival, bytes, id);
}

void LinkLog::departure(Microseconds at, std::uint32_t bytes, std::uint64_t id) {
  add(at, LinkLogEvent::Kind::kDeparture, bytes, id);
}

void LinkLog::drop(Microseconds at, std::uint32_t bytes, std::uint64_t id,
                   DropReason reason) {
  add(at, LinkLogEvent::Kind::kDrop, bytes, id, reason);
}

std::string LinkLog::to_text() const {
  std::ostringstream out;
  for (const auto& event : events_) {
    out << (event.at / 1000) << ' ' << static_cast<char>(event.kind) << ' '
        << event.bytes << '\n';
  }
  return out.str();
}

LinkLog LinkLog::parse(std::string_view text) {
  LinkLog log;
  for (const auto raw_line : util::split(text, '\n')) {
    const auto line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    const auto fields = util::split(line, ' ');
    if (fields.size() != 3) {
      throw std::invalid_argument{"bad link log line: " + std::string{line}};
    }
    std::uint64_t ms = 0;
    std::uint64_t bytes = 0;
    if (!util::parse_u64(fields[0], ms) || !util::parse_u64(fields[2], bytes) ||
        fields[1].size() != 1) {
      throw std::invalid_argument{"bad link log line: " + std::string{line}};
    }
    const char kind_char = fields[1][0];
    LinkLogEvent::Kind kind;
    switch (kind_char) {
      case '+': kind = LinkLogEvent::Kind::kArrival; break;
      case '-': kind = LinkLogEvent::Kind::kDeparture; break;
      case 'd': kind = LinkLogEvent::Kind::kDrop; break;
      default:
        throw std::invalid_argument{"bad link log event kind: " +
                                    std::string{line}};
    }
    log.add(static_cast<Microseconds>(ms) * 1000, kind,
            static_cast<std::uint32_t>(bytes), 0);
  }
  return log;
}

LinkLogSummary summarize_link_log(const LinkLog& log, Microseconds bin_width) {
  LinkLogSummary summary;
  summary.bin_width = bin_width;
  if (log.events().empty()) {
    return summary;
  }
  // Match departures to arrivals: by packet id when available, else FIFO.
  std::unordered_map<std::uint64_t, Microseconds> by_id;
  std::deque<Microseconds> fifo;
  util::Samples delays_ms;
  Microseconds last_time = 0;
  // Instantaneous queue depth, replayed from the event stream: +1 at
  // arrival, -1 at departure or drop.
  std::uint64_t depth_packets = 0;
  std::uint64_t depth_bytes = 0;

  for (const auto& event : log.events()) {
    last_time = std::max(last_time, event.at);
    switch (event.kind) {
      case LinkLogEvent::Kind::kArrival:
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
      case LinkLogEvent::Kind::kDeparture: {
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
      case LinkLogEvent::Kind::kDrop:
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
    const std::size_t bins =
        static_cast<std::size_t>(last_time / bin_width) + 1;
    summary.throughput_bins_bps.assign(bins, 0.0);
    for (const auto& event : log.events()) {
      if (event.kind == LinkLogEvent::Kind::kDeparture) {
        summary.throughput_bins_bps[static_cast<std::size_t>(event.at / bin_width)] +=
            static_cast<double>(event.bytes) * 8.0;
      }
    }
    for (double& bin : summary.throughput_bins_bps) {
      bin /= static_cast<double>(bin_width) / 1e6;
    }
  }
  return summary;
}

}  // namespace mahimahi::net
