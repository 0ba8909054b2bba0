#include "net/link_log.hpp"

#include <algorithm>
#include <stdexcept>

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

LinkStats::LinkStats(Microseconds bin_width) {
  if (bin_width <= 0) {
    throw std::invalid_argument{"link log bin width must be positive, got " +
                                std::to_string(bin_width) + " us"};
  }
  summary_.bin_width = bin_width;
}

void LinkStats::arrival(Microseconds at, std::uint32_t bytes, std::uint64_t id) {
  last_time_ = std::max(last_time_, at);
  ++summary_.arrivals;
  ++depth_packets_;
  depth_bytes_ += bytes;
  summary_.queue_high_water_packets =
      std::max(summary_.queue_high_water_packets, depth_packets_);
  summary_.queue_high_water_bytes =
      std::max(summary_.queue_high_water_bytes, depth_bytes_);
  if (id != 0) {
    queued_by_id_[id] = at;
  } else {
    queued_fifo_.push_back(at);
  }
}

void LinkStats::departure(Microseconds at, std::uint32_t bytes,
                          std::uint64_t id) {
  last_time_ = std::max(last_time_, at);
  ++summary_.departures;
  summary_.bytes_delivered += bytes;
  if (depth_packets_ > 0) {
    --depth_packets_;
  }
  depth_bytes_ -= std::min<std::uint64_t>(depth_bytes_, bytes);
  Microseconds arrived = -1;
  if (id != 0) {
    if (const auto it = queued_by_id_.find(id); it != queued_by_id_.end()) {
      arrived = it->second;
      queued_by_id_.erase(it);
    }
  } else if (!queued_fifo_.empty()) {
    arrived = queued_fifo_.front();
    queued_fifo_.pop_front();
  }
  if (arrived >= 0) {
    delays_ms_.add(to_ms(at - arrived));
  }
  const auto bin = static_cast<std::size_t>(at / summary_.bin_width);
  if (bin >= departed_bits_.size()) {
    departed_bits_.resize(bin + 1, 0.0);
  }
  departed_bits_[bin] += static_cast<double>(bytes) * 8.0;
}

void LinkStats::drop(Microseconds at, std::uint32_t bytes, std::uint64_t,
                     DropReason reason) {
  last_time_ = std::max(last_time_, at);
  ++summary_.drops;
  switch (reason) {
    case DropReason::kOverflow:
      ++summary_.drops_overflow;
      break;
    case DropReason::kAqm:
      ++summary_.drops_aqm;
      break;
    case DropReason::kUnknown:
      ++summary_.drops_unknown;
      break;
  }
  if (depth_packets_ > 0) {
    --depth_packets_;
  }
  depth_bytes_ -= std::min<std::uint64_t>(depth_bytes_, bytes);
}

LinkLogSummary LinkStats::summary() const {
  LinkLogSummary summary = summary_;
  if (!delays_ms_.empty()) {
    summary.delay_p50_ms = delays_ms_.median();
    summary.delay_p95_ms = delays_ms_.percentile(95);
    summary.delay_max_ms = delays_ms_.max();
  }
  if (last_time_ > 0) {
    summary.average_throughput_bps =
        static_cast<double>(summary.bytes_delivered) * 8.0 /
        (static_cast<double>(last_time_) / 1e6);
    // Bins span the whole log, the idle tail after the last departure
    // included.
    summary.throughput_bins_bps = departed_bits_;
    summary.throughput_bins_bps.resize(
        static_cast<std::size_t>(last_time_ / summary.bin_width) + 1, 0.0);
    for (double& bin : summary.throughput_bins_bps) {
      bin /= static_cast<double>(summary.bin_width) / 1e6;
    }
  }
  return summary;
}

LinkStats LinkStats::parse(std::string_view text, Microseconds bin_width) {
  LinkStats stats{bin_width};
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
    const Microseconds at = static_cast<Microseconds>(ms) * 1000;
    const auto size = static_cast<std::uint32_t>(bytes);
    switch (fields[1][0]) {
      case '+': stats.arrival(at, size, 0); break;
      case '-': stats.departure(at, size, 0); break;
      case 'd': stats.drop(at, size, 0); break;
      default:
        throw std::invalid_argument{"bad link log event kind: " +
                                    std::string{line}};
    }
  }
  return stats;
}

}  // namespace mahimahi::net
