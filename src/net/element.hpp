#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/event_loop.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "util/random.hpp"

namespace mahimahi::net {

/// A bidirectional packet-processing stage. Shells (delay, link, loss)
/// compose by chaining elements between the application side and the
/// origin-server side — the in-process analogue of nesting mahimahi
/// namespaces. Packets enter via process() and exit via the per-direction
/// forward handler installed by the Chain (or by tests).
class NetworkElement {
 public:
  using Forward = std::function<void(Packet&&)>;

  virtual ~NetworkElement() = default;
  NetworkElement(const NetworkElement&) = delete;
  NetworkElement& operator=(const NetworkElement&) = delete;

  /// Handle a packet travelling in `direction`.
  virtual void process(Packet&& packet, Direction direction) = 0;

  /// Install the egress handler for packets exiting in `direction`.
  void set_forward(Direction direction, Forward forward) {
    forward_[index(direction)] = std::move(forward);
  }

 protected:
  NetworkElement() = default;

  /// Emit a packet out of this element. Dropping is just "don't emit".
  void emit(Packet&& packet, Direction direction) {
    auto& forward = forward_[index(direction)];
    if (forward) {
      forward(std::move(packet));
    }
  }

 private:
  static constexpr std::size_t index(Direction d) {
    return d == Direction::kUplink ? 0 : 1;
  }
  Forward forward_[2];
};

/// Passes packets through untouched — the empty shell stack.
class PassthroughElement final : public NetworkElement {
 public:
  void process(Packet&& packet, Direction direction) override {
    emit(std::move(packet), direction);
  }
};

/// DelayShell's element: every packet, in both directions, is released
/// exactly `delay` after it entered (a fixed per-packet one-way delay).
/// Each direction is one PacketChannel — a fixed delay keeps release times
/// monotone — so packets leave in arrival order.
class DelayBox final : public NetworkElement {
 public:
  DelayBox(EventLoop& loop, Microseconds delay);

  void process(Packet&& packet, Direction direction) override;

  [[nodiscard]] Microseconds delay() const { return delay_; }

 private:
  EventLoop& loop_;
  Microseconds delay_;
  PacketChannel lines_[2];  // uplink, downlink
};

/// mm-loss: drops packets i.i.d. with the configured probability per
/// direction. Deterministic given the fork of the experiment RNG it owns.
class LossBox final : public NetworkElement {
 public:
  LossBox(util::Rng rng, double uplink_loss, double downlink_loss);

  void process(Packet&& packet, Direction direction) override;

  [[nodiscard]] std::uint64_t dropped(Direction direction) const {
    return dropped_[direction == Direction::kUplink ? 0 : 1];
  }

 private:
  util::Rng rng_;
  double loss_[2];
  std::uint64_t dropped_[2]{0, 0};
};

/// Counts packets and bytes per direction (mm-link --meter-*; also the
/// workhorse of isolation and conservation tests).
class MeterBox final : public NetworkElement {
 public:
  void process(Packet&& packet, Direction direction) override;

  [[nodiscard]] std::uint64_t packets(Direction direction) const {
    return packets_[idx(direction)];
  }
  [[nodiscard]] std::uint64_t bytes(Direction direction) const {
    return bytes_[idx(direction)];
  }

 private:
  static constexpr std::size_t idx(Direction d) {
    return d == Direction::kUplink ? 0 : 1;
  }
  std::uint64_t packets_[2]{0, 0};
  std::uint64_t bytes_[2]{0, 0};
};

/// Models the host's per-packet forwarding cost for one nested shell: a
/// single-server FIFO whose service time is the per-packet overhead. This
/// is the mechanism behind Figure 2 — each shell a packet traverses adds a
/// little processing latency on the host machine.
class ProcessingDelayBox final : public NetworkElement {
 public:
  ProcessingDelayBox(EventLoop& loop, Microseconds per_packet_cost);

  void process(Packet&& packet, Direction direction) override;

 private:
  EventLoop& loop_;
  Microseconds cost_;
  // Per-direction time at which the "forwarding CPU" frees up.
  Microseconds busy_until_[2]{0, 0};
  PacketChannel lines_[2];  // uplink, downlink: FIFO service per direction
};

/// Periodic link outage (fault injection): both directions drop every
/// packet while the link is down. Down iff some k >= 0 has
/// offset + k*period <= now < offset + k*period + down — a pure function
/// of simulated time, so flaps are identical at any thread/shard count.
class FlapBox final : public NetworkElement {
 public:
  FlapBox(EventLoop& loop, Microseconds period, Microseconds down,
          Microseconds offset);

  void process(Packet&& packet, Direction direction) override;

  [[nodiscard]] bool link_down() const;
  [[nodiscard]] std::uint64_t dropped(Direction direction) const {
    return dropped_[direction == Direction::kUplink ? 0 : 1];
  }

  /// Observability: each outage drop becomes a fault-layer event labeled
  /// "flap/<direction>" with the box's running drop index.
  void set_tracer(obs::Tracer* tracer, std::int32_t session) {
    tracer_ = tracer;
    trace_session_ = session;
  }

 private:
  EventLoop& loop_;
  Microseconds period_;
  Microseconds down_;
  Microseconds offset_;
  std::uint64_t dropped_[2]{0, 0};
  obs::Tracer* tracer_{nullptr};
  std::int32_t trace_session_{0};
};

/// Payload-corruption fault: per-direction packet counters feed the
/// stateless (seed, stream, index) hash, so whether packet #i is corrupted
/// never depends on other traffic. A corrupted packet is dropped — the
/// simulator has no checksum path, and a bad frame is discarded either way.
class CorruptBox final : public NetworkElement {
 public:
  CorruptBox(std::uint64_t seed, double rate);

  void process(Packet&& packet, Direction direction) override;

  [[nodiscard]] std::uint64_t corrupted(Direction direction) const {
    return corrupted_[direction == Direction::kUplink ? 0 : 1];
  }

  /// Observability: corruption drops become fault-layer events labeled
  /// "corrupt/<direction>". The box is clockless, so the caller lends it
  /// the loop for timestamps.
  void set_tracer(obs::Tracer* tracer, std::int32_t session,
                  const EventLoop* loop) {
    tracer_ = tracer;
    trace_session_ = session;
    trace_loop_ = loop;
  }

 private:
  std::uint64_t seed_;
  double rate_;
  std::uint64_t seen_[2]{0, 0};
  std::uint64_t corrupted_[2]{0, 0};
  obs::Tracer* tracer_{nullptr};
  std::int32_t trace_session_{0};
  const EventLoop* trace_loop_{nullptr};
};

/// An ordered stack of elements wired together. Uplink packets traverse
/// element 0 → N-1 and exit via `uplink_out`; downlink packets traverse
/// N-1 → 0 and exit via `downlink_out`. An empty chain forwards directly.
class Chain {
 public:
  /// Append an element (application side is index 0).
  void push_back(std::unique_ptr<NetworkElement> element);

  /// Install the chain's endpoints and (re)wire all elements.
  void set_outputs(NetworkElement::Forward uplink_out,
                   NetworkElement::Forward downlink_out);

  /// Inject a packet at the application side, travelling uplink.
  void send_uplink(Packet&& packet);

  /// Inject a packet at the network side, travelling downlink.
  void send_downlink(Packet&& packet);

  [[nodiscard]] std::size_t size() const { return elements_.size(); }
  [[nodiscard]] NetworkElement& element(std::size_t i) { return *elements_.at(i); }

 private:
  void rewire();

  std::vector<std::unique_ptr<NetworkElement>> elements_;
  NetworkElement::Forward uplink_out_;
  NetworkElement::Forward downlink_out_;
};

}  // namespace mahimahi::net
