#pragma once

#include <memory>
#include <optional>
#include <string>

#include "net/element.hpp"
#include "net/link_log.hpp"
#include "net/queue.hpp"
#include "obs/trace.hpp"
#include "trace/trace.hpp"

namespace mahimahi::net {

/// One direction of a trace-driven link: an arrival queue drained by the
/// trace's packet-delivery opportunities (mahimahi's link_queue).
///
/// Each opportunity can carry up to trace::kOpportunityBytes of the head
/// packet; a packet departs at the opportunity that delivers its last byte
/// (packets above the MTU would consume several opportunities; TCP
/// segmentation keeps everything at or below one).
class LinkQueue {
 public:
  using Deliver = std::function<void(Packet&&)>;

  LinkQueue(EventLoop& loop, trace::PacketTrace trace,
            std::unique_ptr<PacketQueue> queue, Deliver deliver);

  /// Packet arrives at the link.
  void accept(Packet&& packet);

  /// Fold arrivals/departures/drops into `log` (mm-link --*-log).
  void set_log(LinkStats* log) { log_ = log; }

  /// Mirror enqueue/dequeue/drop events (with instantaneous queue depth)
  /// into an obs tracer. `label` names this queue in the trace, e.g.
  /// "shell0/up"; drops append their reason ("label/overflow"). Null
  /// tracer disables (the default, near-free path).
  void set_tracer(obs::Tracer* tracer, std::int32_t session,
                  std::string label) {
    tracer_ = tracer;
    trace_session_ = session;
    trace_label_ = std::move(label);
  }

  [[nodiscard]] const PacketQueue& queue() const { return *queue_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_packets_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }

 private:
  void schedule_next_opportunity();
  void use_opportunity();

  EventLoop& loop_;
  trace::PacketTrace trace_;
  std::unique_ptr<PacketQueue> queue_;
  Deliver deliver_;
  LinkStats* log_{nullptr};
  obs::Tracer* tracer_{nullptr};
  std::int32_t trace_session_{0};
  std::string trace_label_;

  std::uint64_t next_opportunity_{0};      // index into the (repeating) trace
  EventLoop::EventId pending_event_{0};    // scheduled opportunity, 0 = none
  std::optional<Packet> in_service_;       // head packet partially delivered
  std::size_t in_service_remaining_{0};    // bytes still to deliver
  std::uint64_t delivered_packets_{0};
  std::uint64_t delivered_bytes_{0};
};

/// LinkShell's element: an uplink LinkQueue and a downlink LinkQueue fed
/// from (possibly different) packet-delivery traces.
class TraceLink final : public NetworkElement {
 public:
  TraceLink(EventLoop& loop, trace::PacketTrace uplink_trace,
            trace::PacketTrace downlink_trace, QueueSpec uplink_queue = {},
            QueueSpec downlink_queue = {});

  void process(Packet&& packet, Direction direction) override;

  /// Summarize `direction`'s queue (mm-link --uplink-log/--downlink-log,
  /// folded as packets pass; see summary()). Idempotent.
  void enable_summary(Direction direction);
  /// The summary so far; the direction must have been enabled.
  [[nodiscard]] LinkLogSummary summary(Direction direction) const;

  /// Trace both directions into `tracer`; queues are labeled
  /// "<name>/up" and "<name>/down".
  void set_tracer(obs::Tracer* tracer, std::int32_t session,
                  const std::string& name);

  [[nodiscard]] const LinkQueue& uplink() const { return *uplink_; }
  [[nodiscard]] const LinkQueue& downlink() const { return *downlink_; }

 private:
  std::unique_ptr<LinkQueue> uplink_;
  std::unique_ptr<LinkQueue> downlink_;
  std::unique_ptr<LinkStats> stats_[2];  // [uplink, downlink], when enabled
};

}  // namespace mahimahi::net
