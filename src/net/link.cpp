#include "net/link.hpp"

#include "util/assert.hpp"

namespace mahimahi::net {

LinkQueue::LinkQueue(EventLoop& loop, trace::PacketTrace trace,
                     std::unique_ptr<PacketQueue> queue, Deliver deliver)
    : loop_{loop},
      trace_{std::move(trace)},
      queue_{std::move(queue)},
      deliver_{std::move(deliver)} {
  MAHI_ASSERT(queue_ != nullptr);
  MAHI_ASSERT(deliver_ != nullptr);
}

void LinkQueue::accept(Packet&& packet) {
  const std::uint32_t bytes = static_cast<std::uint32_t>(packet.wire_size());
  const std::uint64_t id = packet.id;
  if (log_ != nullptr) {
    log_->arrival(loop_.now(), bytes, id);
  }
  const std::uint64_t drops_before = queue_->drops();
  const std::uint64_t overflow_before = queue_->overflow_drops();
  queue_->enqueue(std::move(packet), loop_.now());
  if (queue_->drops() > drops_before) {
    const DropReason reason = queue_->overflow_drops() > overflow_before
                                  ? DropReason::kOverflow
                                  : DropReason::kAqm;
    if (log_ != nullptr) {
      log_->drop(loop_.now(), bytes, id, reason);
    }
    if (tracer_ != nullptr) {
      tracer_->event(loop_.now(), obs::Layer::kLink, obs::EventKind::kDrop,
                     trace_session_, id, queue_->packet_count(),
                     static_cast<double>(queue_->byte_count()),
                     trace_label_ + "/" + std::string(to_string(reason)));
    }
  } else if (tracer_ != nullptr) {
    tracer_->event(loop_.now(), obs::Layer::kLink, obs::EventKind::kEnqueue,
                   trace_session_, id, queue_->packet_count(),
                   static_cast<double>(queue_->byte_count()), trace_label_);
  }
  schedule_next_opportunity();
}

void LinkQueue::schedule_next_opportunity() {
  if (pending_event_ != 0) {
    return;  // an opportunity is already scheduled
  }
  if (!in_service_ && queue_->empty()) {
    return;  // nothing to deliver; the link idles until the next arrival
  }
  // The next usable opportunity never moves backwards: an idle period
  // cannot bank opportunities (mahimahi discards unused ones). Only an
  // idle gap can leave it in the past; otherwise the first opportunity at
  // or after now() is at or before it, and the search is skipped.
  Microseconds at = trace_.opportunity_time(next_opportunity_);
  if (at < loop_.now()) {
    next_opportunity_ = trace_.first_opportunity_at_or_after(loop_.now());
    at = trace_.opportunity_time(next_opportunity_);
  }
  pending_event_ = loop_.schedule_at(at, [this] {
    pending_event_ = 0;
    use_opportunity();
  });
}

void LinkQueue::use_opportunity() {
  ++next_opportunity_;  // this opportunity is consumed regardless of use
  if (!in_service_) {
    const std::uint64_t drops_before = queue_->drops();
    const std::size_t bytes_before = queue_->byte_count();
    auto head = queue_->dequeue(loop_.now());
    const std::uint64_t dropped = queue_->drops() - drops_before;
    if (dropped > 0 && (log_ != nullptr || tracer_ != nullptr)) {
      // Dequeue-time AQM drops (CoDel). The discipline pops them
      // internally, so individual sizes and ids are not observable; the
      // first record carries the aggregate dropped bytes, the rest zero —
      // packet counts stay exact, byte depth stays consistent.
      const std::size_t head_bytes = head ? head->wire_size() : 0;
      const std::size_t dropped_bytes =
          bytes_before - queue_->byte_count() - head_bytes;
      for (std::uint64_t i = 0; i < dropped; ++i) {
        const auto bytes =
            static_cast<std::uint32_t>(i == 0 ? dropped_bytes : 0);
        if (log_ != nullptr) {
          log_->drop(loop_.now(), bytes, 0, DropReason::kAqm);
        }
        if (tracer_ != nullptr) {
          tracer_->event(loop_.now(), obs::Layer::kLink,
                         obs::EventKind::kDrop, trace_session_, 0,
                         queue_->packet_count(),
                         static_cast<double>(queue_->byte_count()),
                         trace_label_ + "/aqm");
        }
      }
    }
    if (!head) {
      return;  // AQM drained the queue; idle until the next arrival
    }
    in_service_ = std::move(head);
    in_service_remaining_ = in_service_->wire_size();
  }
  const std::size_t delivered =
      std::min<std::size_t>(in_service_remaining_, trace::kOpportunityBytes);
  in_service_remaining_ -= delivered;
  if (in_service_remaining_ == 0) {
    delivered_bytes_ += in_service_->wire_size();
    ++delivered_packets_;
    if (log_ != nullptr) {
      log_->departure(loop_.now(),
                      static_cast<std::uint32_t>(in_service_->wire_size()),
                      in_service_->id);
    }
    if (tracer_ != nullptr) {
      tracer_->event(loop_.now(), obs::Layer::kLink, obs::EventKind::kDequeue,
                     trace_session_, in_service_->id, queue_->packet_count(),
                     static_cast<double>(queue_->byte_count()), trace_label_);
    }
    deliver_(std::move(*in_service_));
    in_service_.reset();
  }
  schedule_next_opportunity();
}

TraceLink::TraceLink(EventLoop& loop, trace::PacketTrace uplink_trace,
                     trace::PacketTrace downlink_trace, QueueSpec uplink_queue,
                     QueueSpec downlink_queue) {
  uplink_ = std::make_unique<LinkQueue>(
      loop, std::move(uplink_trace), make_queue(uplink_queue),
      [this](Packet&& p) { emit(std::move(p), Direction::kUplink); });
  downlink_ = std::make_unique<LinkQueue>(
      loop, std::move(downlink_trace), make_queue(downlink_queue),
      [this](Packet&& p) { emit(std::move(p), Direction::kDownlink); });
}

void TraceLink::process(Packet&& packet, Direction direction) {
  if (direction == Direction::kUplink) {
    uplink_->accept(std::move(packet));
  } else {
    downlink_->accept(std::move(packet));
  }
}

void TraceLink::enable_summary(Direction direction) {
  const bool up = direction == Direction::kUplink;
  auto& stats = stats_[up ? 0 : 1];
  if (stats == nullptr) {
    stats = std::make_unique<LinkStats>();
  }
  (up ? uplink_ : downlink_)->set_log(stats.get());
}

void TraceLink::set_tracer(obs::Tracer* tracer, std::int32_t session,
                           const std::string& name) {
  uplink_->set_tracer(tracer, session, name + "/up");
  downlink_->set_tracer(tracer, session, name + "/down");
}

LinkLogSummary TraceLink::summary(Direction direction) const {
  const auto& stats = stats_[direction == Direction::kUplink ? 0 : 1];
  MAHI_ASSERT_MSG(stats != nullptr, "TraceLink summary not enabled");
  return stats->summary();
}

}  // namespace mahimahi::net
