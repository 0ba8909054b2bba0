#include "net/element.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mahimahi::net {

// --- DelayBox ---------------------------------------------------------------

DelayBox::DelayBox(EventLoop& loop, Microseconds delay)
    : loop_{loop},
      delay_{delay},
      lines_{{loop, [this](Packet&& p) { emit(std::move(p), Direction::kUplink); }},
             {loop, [this](Packet&& p) { emit(std::move(p), Direction::kDownlink); }}} {
  MAHI_ASSERT_MSG(delay >= 0, "negative delay");
}

void DelayBox::process(Packet&& packet, Direction direction) {
  if (delay_ == 0) {
    emit(std::move(packet), direction);
    return;
  }
  lines_[direction == Direction::kUplink ? 0 : 1].push(loop_.now() + delay_,
                                                       std::move(packet));
}

// --- LossBox ----------------------------------------------------------------

LossBox::LossBox(util::Rng rng, double uplink_loss, double downlink_loss)
    : rng_{std::move(rng)}, loss_{uplink_loss, downlink_loss} {
  MAHI_ASSERT(uplink_loss >= 0.0 && uplink_loss <= 1.0);
  MAHI_ASSERT(downlink_loss >= 0.0 && downlink_loss <= 1.0);
}

void LossBox::process(Packet&& packet, Direction direction) {
  const std::size_t i = direction == Direction::kUplink ? 0 : 1;
  if (rng_.chance(loss_[i])) {
    ++dropped_[i];
    return;  // dropped
  }
  emit(std::move(packet), direction);
}

// --- MeterBox ---------------------------------------------------------------

void MeterBox::process(Packet&& packet, Direction direction) {
  ++packets_[idx(direction)];
  bytes_[idx(direction)] += packet.wire_size();
  emit(std::move(packet), direction);
}

// --- ProcessingDelayBox -------------------------------------------------------

ProcessingDelayBox::ProcessingDelayBox(EventLoop& loop, Microseconds per_packet_cost)
    : loop_{loop},
      cost_{per_packet_cost},
      lines_{{loop, [this](Packet&& p) { emit(std::move(p), Direction::kUplink); }},
             {loop, [this](Packet&& p) { emit(std::move(p), Direction::kDownlink); }}} {
  MAHI_ASSERT(per_packet_cost >= 0);
}

void ProcessingDelayBox::process(Packet&& packet, Direction direction) {
  if (cost_ == 0) {
    emit(std::move(packet), direction);
    return;
  }
  const std::size_t i = direction == Direction::kUplink ? 0 : 1;
  const Microseconds start = std::max(loop_.now(), busy_until_[i]);
  const Microseconds done = start + cost_;
  busy_until_[i] = done;
  lines_[i].push(done, std::move(packet));
}

// --- FlapBox ----------------------------------------------------------------

FlapBox::FlapBox(EventLoop& loop, Microseconds period, Microseconds down,
                 Microseconds offset)
    : loop_{loop}, period_{period}, down_{down}, offset_{offset} {
  MAHI_ASSERT_MSG(period > 0 && down > 0 && down < period,
                  "flap needs 0 < down < period");
  MAHI_ASSERT(offset >= 0);
}

bool FlapBox::link_down() const {
  const Microseconds now = loop_.now();
  if (now < offset_) {
    return false;
  }
  return (now - offset_) % period_ < down_;
}

void FlapBox::process(Packet&& packet, Direction direction) {
  if (link_down()) {
    const std::size_t i = direction == Direction::kUplink ? 0 : 1;
    const std::uint64_t index = dropped_[i]++;
    if (tracer_ != nullptr) {
      tracer_->event(loop_.now(), obs::Layer::kFault,
                     obs::EventKind::kFaultInjected, trace_session_,
                     packet.id, index, 0,
                     i == 0 ? "flap/up" : "flap/down");
    }
    return;  // blackhole while the link is down
  }
  emit(std::move(packet), direction);
}

// --- CorruptBox -------------------------------------------------------------

CorruptBox::CorruptBox(std::uint64_t seed, double rate)
    : seed_{seed}, rate_{rate} {
  MAHI_ASSERT(rate >= 0.0 && rate <= 1.0);
}

void CorruptBox::process(Packet&& packet, Direction direction) {
  const std::size_t i = direction == Direction::kUplink ? 0 : 1;
  const std::uint64_t index = seen_[i]++;
  if (util::derive_chance(seed_, i == 0 ? "corrupt-up" : "corrupt-down", index,
                          rate_)) {
    ++corrupted_[i];
    if (tracer_ != nullptr) {
      tracer_->event(trace_loop_ != nullptr ? trace_loop_->now() : 0,
                     obs::Layer::kFault, obs::EventKind::kFaultInjected,
                     trace_session_, packet.id, index, 0,
                     i == 0 ? "corrupt/up" : "corrupt/down");
    }
    return;  // corrupted frame: receiver would discard it
  }
  emit(std::move(packet), direction);
}

// --- Chain ------------------------------------------------------------------

void Chain::push_back(std::unique_ptr<NetworkElement> element) {
  MAHI_ASSERT(element != nullptr);
  elements_.push_back(std::move(element));
  rewire();
}

void Chain::set_outputs(NetworkElement::Forward uplink_out,
                        NetworkElement::Forward downlink_out) {
  uplink_out_ = std::move(uplink_out);
  downlink_out_ = std::move(downlink_out);
  rewire();
}

void Chain::rewire() {
  if (elements_.empty()) {
    return;
  }
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    // Uplink egress of element i feeds element i+1, or exits the chain.
    if (i + 1 < elements_.size()) {
      NetworkElement* next = elements_[i + 1].get();
      elements_[i]->set_forward(Direction::kUplink, [next](Packet&& p) {
        next->process(std::move(p), Direction::kUplink);
      });
    } else {
      // Copy the handler: rewire() runs again whenever the chain grows.
      auto out = uplink_out_;
      elements_[i]->set_forward(Direction::kUplink, [out](Packet&& p) {
        if (out) {
          out(std::move(p));
        }
      });
    }
    // Downlink egress of element i feeds element i-1, or exits the chain.
    if (i > 0) {
      NetworkElement* prev = elements_[i - 1].get();
      elements_[i]->set_forward(Direction::kDownlink, [prev](Packet&& p) {
        prev->process(std::move(p), Direction::kDownlink);
      });
    } else {
      auto out = downlink_out_;
      elements_[i]->set_forward(Direction::kDownlink, [out](Packet&& p) {
        if (out) {
          out(std::move(p));
        }
      });
    }
  }
}

void Chain::send_uplink(Packet&& packet) {
  if (elements_.empty()) {
    if (uplink_out_) {
      uplink_out_(std::move(packet));
    }
    return;
  }
  elements_.front()->process(std::move(packet), Direction::kUplink);
}

void Chain::send_downlink(Packet&& packet) {
  if (elements_.empty()) {
    if (downlink_out_) {
      downlink_out_(std::move(packet));
    }
    return;
  }
  elements_.back()->process(std::move(packet), Direction::kDownlink);
}

}  // namespace mahimahi::net
