// mm-link-report: analyze a saved link log (mm-link --uplink-log format) —
// the mm-throughput-graph / mm-delay-graph equivalent. Lines fold straight
// into a net::LinkStats; no event list is kept. A bin width that is not a
// whole number of milliseconds above zero exits 1.
//
//   usage: mm_link_report <log-file> [bin-ms]
//          mm_link_report --cc [controller ...]
//
// The --cc mode generates the log itself: it drives one 12 MB bulk flow
// per congestion controller (default: every registered one) across a
// reference bottleneck (8 Mbit/s, 40 ms RTT, a 54-packet droptail
// buffer, two bandwidth-delay products), prints each
// flow's transport endpoint state — controller name, final smoothed_rtt()
// and cwnd_bytes(), pacing rate, retransmissions — and then the usual
// link-log summary for the queue that flow built.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cc/registry.hpp"
#include "net/bulk_probe.hpp"
#include "net/link_log.hpp"
#include "util/strings.hpp"

using namespace mahimahi;
using namespace mahimahi::net;

namespace {

void print_drop_reasons(const LinkLogSummary& summary) {
  if (summary.drops == 0) {
    return;
  }
  std::string reasons;
  if (summary.drops_overflow > 0) {
    reasons += "overflow " + std::to_string(summary.drops_overflow);
  }
  if (summary.drops_aqm > 0) {
    reasons += (reasons.empty() ? "" : ", ") +
               std::string("aqm ") + std::to_string(summary.drops_aqm);
  }
  if (summary.drops_unknown > 0) {
    reasons += (reasons.empty() ? "" : ", ") +
               std::string("unattributed ") +
               std::to_string(summary.drops_unknown);
  }
  std::printf("  drop reasons:        %s\n", reasons.c_str());
}

void print_summary(const LinkLogSummary& summary) {
  std::printf("  arrivals %llu, departures %llu, drops %llu\n",
              (unsigned long long)summary.arrivals,
              (unsigned long long)summary.departures,
              (unsigned long long)summary.drops);
  print_drop_reasons(summary);
  std::printf("  queue high water:    %llu packets / %llu bytes\n",
              (unsigned long long)summary.queue_high_water_packets,
              (unsigned long long)summary.queue_high_water_bytes);
  std::printf("  average throughput:  %.3f Mbit/s\n",
              summary.average_throughput_bps / 1e6);
  std::printf("  queueing delay:      p50 %.1f ms, p95 %.1f ms, max %.1f ms\n",
              summary.delay_p50_ms, summary.delay_p95_ms, summary.delay_max_ms);
}

int run_cc_flows(const std::vector<std::string>& controllers) {
  BulkFlowSpec spec;  // defaults: 8 Mbit/s, 40 ms RTT, 12 MB
  std::printf("reference bottleneck: %.0f Mbit/s, %lld ms RTT, droptail "
              "%zu packets, %.0f MB bulk flow per controller\n\n",
              spec.link_mbps, (long long)(2 * spec.one_way_delay / 1000),
              kBulkFlowBufferPackets, static_cast<double>(spec.bytes) / 1e6);
  for (const std::string& controller : controllers) {
    if (!cc::is_registered(controller)) {
      std::fprintf(stderr, "error: '%s' is not a registered controller\n",
                   controller.c_str());
      return 2;
    }
    spec.congestion_control = controller;
    const BulkFlowReport flow = run_bulk_flow(spec);

    const std::string pacing_text =
        flow.final_pacing_rate > 0
            ? std::to_string(
                  static_cast<long long>(flow.final_pacing_rate * 8 / 1e3)) +
                  " kbit/s"
            : "off";
    // The transport's own typed verdict — "close=normal" for a clean FIN
    // exchange, "close=retransmit-exhausted" etc. under faults — rather
    // than an undifferentiated "closed".
    std::printf("flow: cc=%-6s  srtt=%6.1f ms  cwnd=%8.0f B  "
                "pacing=%s  rexmit=%llu  completed=%.2f s  close=%s%s\n",
                flow.controller.c_str(),
                static_cast<double>(flow.final_srtt) / 1e3,
                flow.final_cwnd_bytes, pacing_text.c_str(),
                (unsigned long long)flow.retransmissions,
                static_cast<double>(flow.completed_at) / 1e6,
                std::string{to_string(flow.close_reason)}.c_str(),
                flow.complete ? "" : "  [INCOMPLETE]");
    print_summary(flow.uplink);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <log-file> [bin-ms]\n"
                 "       %s --cc [controller ...]\n",
                 argv[0], argv[0]);
    return 2;
  }

  if (std::strcmp(argv[1], "--cc") == 0) {
    std::vector<std::string> controllers;
    for (int i = 2; i < argc; ++i) {
      controllers.emplace_back(argv[i]);
    }
    if (controllers.empty()) {
      controllers = cc::registered_controllers();
    }
    return run_cc_flows(controllers);
  }

  std::uint64_t bin_ms = 500;
  if (argc > 2 && (!util::parse_u64(argv[2], bin_ms) || bin_ms == 0 ||
                   bin_ms > static_cast<std::uint64_t>(INT64_MAX / 1000))) {
    std::fprintf(stderr, "error: bad bin width '%s' (want whole ms > 0)\n",
                 argv[2]);
    return 1;
  }
  const auto bin_width = static_cast<Microseconds>(bin_ms) * 1000;

  std::ifstream in{argv[1]};
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream contents;
  contents << in.rdbuf();

  LinkStats log;
  try {
    log = LinkStats::parse(contents.str(), bin_width);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const LinkLogSummary summary = log.summary();

  std::printf("log:                 %s (%llu events)\n", argv[1],
              (unsigned long long)log.events());
  std::printf("arrivals:            %llu\n",
              (unsigned long long)summary.arrivals);
  std::printf("departures:          %llu\n",
              (unsigned long long)summary.departures);
  std::printf("drops:               %llu\n", (unsigned long long)summary.drops);
  if (summary.drops > 0) {
    std::printf("  overflow %llu, aqm %llu, unattributed %llu\n",
                (unsigned long long)summary.drops_overflow,
                (unsigned long long)summary.drops_aqm,
                (unsigned long long)summary.drops_unknown);
  }
  std::printf("queue high water:    %llu packets / %llu bytes\n",
              (unsigned long long)summary.queue_high_water_packets,
              (unsigned long long)summary.queue_high_water_bytes);
  std::printf("bytes delivered:     %llu\n",
              (unsigned long long)summary.bytes_delivered);
  std::printf("average throughput:  %.3f Mbit/s\n",
              summary.average_throughput_bps / 1e6);
  std::printf("queueing delay:      p50 %.1f ms, p95 %.1f ms, max %.1f ms\n",
              summary.delay_p50_ms, summary.delay_p95_ms, summary.delay_max_ms);

  std::printf("throughput per %lld ms bin (Mbit/s):\n",
              (long long)(bin_width / 1000));
  for (std::size_t i = 0; i < summary.throughput_bins_bps.size(); ++i) {
    const double mbps = summary.throughput_bins_bps[i] / 1e6;
    std::printf("  %6.1fs %8.2f  %s\n",
                static_cast<double>(i) * static_cast<double>(bin_width) / 1e6,
                mbps, std::string(static_cast<std::size_t>(mbps), '#').c_str());
  }
  return 0;
}
