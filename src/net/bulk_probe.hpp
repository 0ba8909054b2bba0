#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link_log.hpp"
#include "net/queue.hpp"
#include "net/tcp.hpp"
#include "trace/trace.hpp"
#include "util/time.hpp"

namespace mahimahi::net {

/// Reference single-flow rig behind mm_link_report --cc: one TCP bulk
/// transfer through a fixed one-way delay and a constant-rate bottleneck
/// with a deep (unbounded) buffer, optionally lossy, under a named
/// congestion controller. Isolates the
/// controller's transport behaviour — completion time and the queue it
/// parks at the bottleneck — with no application model on top. Fully
/// deterministic for a given spec.
struct BulkFlowSpec {
  std::string congestion_control{};  // "" = the default controller (reno)
  std::size_t bytes{3 * 1000 * 1000};
  double link_mbps{8.0};             // symmetric bottleneck rate
  Microseconds one_way_delay{20'000};
  double loss{0.0};                  // i.i.d. per-packet, both directions
  std::uint64_t loss_seed{99};
  Microseconds trace_duration{300'000'000};  // must exceed the transfer
};

struct BulkFlowReport {
  bool complete{false};        // every byte delivered in order
  Microseconds completed_at{0};
  std::uint64_t segments_sent{0};
  std::uint64_t retransmissions{0};
  // Final sender-side transport state, read just before teardown.
  std::string controller;
  Microseconds final_srtt{0};
  double final_cwnd_bytes{0};
  double final_pacing_rate{0};  // 0 = unpaced controller
  /// How the transport ended — the typed reason (normal close, SYN
  /// timeout, retransmit exhaustion...), not a bare "closed".
  TcpConnection::CloseReason close_reason{TcpConnection::CloseReason::kNone};
  // Queueing the flow induced at the bottleneck (uplink direction).
  LinkLogSummary uplink;
};

BulkFlowReport run_bulk_flow(const BulkFlowSpec& spec);

/// Multi-flow fairness rig: N long-lived bulk flows — one per entry in
/// `controllers`, each under its own congestion controller — share one
/// bottleneck (constant-rate or trace-driven, with a configurable queue
/// discipline). Data flows *server → client*, mirroring web responses, so
/// the downlink trace/queue is the contested resource. Every sender keeps
/// its pipe full until the measurement window closes; the report carries
/// each flow's delivered bytes, throughput and share of the total, plus
/// Jain's fairness index and the bottleneck's queueing-delay summary.
/// Fully deterministic for a given spec (single event loop, seeded loss,
/// seeded AQM) — thread count and wall clock never enter.
struct MultiBulkFlowSpec {
  /// One flow per entry; the name configures the *sender* (server) side,
  /// the side whose controller governs the contested direction. "" = the
  /// default controller (reno).
  std::vector<std::string> controllers;
  /// Measurement window: shares are delivered-byte counts at this instant.
  Microseconds duration{20'000'000};
  /// Bottleneck: traces when set, else a symmetric constant `link_mbps`.
  std::shared_ptr<const trace::PacketTrace> uplink_trace;
  std::shared_ptr<const trace::PacketTrace> downlink_trace;
  double link_mbps{8.0};
  /// Queue discipline at the bottleneck, both directions.
  QueueSpec queue{};
  Microseconds one_way_delay{20'000};
  double loss{0.0};  // i.i.d. per-packet, both directions
  std::uint64_t loss_seed{99};
  /// Flow i opens its connection at i * start_stagger (0 = all at once).
  Microseconds start_stagger{0};
};

struct MultiBulkFlowReport {
  struct Flow {
    std::string controller;
    std::uint64_t bytes_delivered{0};  // in-order bytes at the receiver
    double throughput_bps{0};
    double share{0};  // bytes_delivered / total across flows
    Microseconds final_srtt{0};
    double final_cwnd_bytes{0};
    std::uint64_t retransmissions{0};
  };
  std::vector<Flow> flows;
  double jain_index{0};  // over per-flow throughputs, in [1/n, 1]
  /// Bottleneck behaviour in the contested (downlink) direction.
  LinkLogSummary bottleneck;
};

MultiBulkFlowReport run_multi_bulk_flow(const MultiBulkFlowSpec& spec);

}  // namespace mahimahi::net
