#pragma once

#include <functional>
#include <unordered_map>

#include "net/address.hpp"
#include "net/element.hpp"
#include "net/packet.hpp"

namespace mahimahi::net {

/// Which side of the element chain an endpoint lives on. The application
/// (browser, recorded client) is on the client side; origin servers and
/// the DNS server are on the server side — matching mahimahi, where the
/// innermost namespace holds the application and replayed servers sit
/// outside the emulated link.
enum class Side : std::uint8_t { kClient, kServer };

/// The wiring of one experiment: endpoints on both sides of an element
/// Chain, with address-based delivery. This is the in-process equivalent
/// of a stack of network namespaces connected by veth pairs.
///
/// Isolation holds by construction: a Fabric owns its address maps and its
/// chain; two Fabrics share nothing but the process.
class Fabric {
 public:
  using Handler = std::function<void(Packet&&)>;

  explicit Fabric(EventLoop& loop);

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] Chain& chain() { return chain_; }

  /// Attach a packet handler for `address` on `side`. Throws
  /// std::invalid_argument if the address is taken (mirrors bind(2) EADDRINUSE).
  void bind(Side side, const Address& address, Handler handler);
  void unbind(Side side, const Address& address);
  [[nodiscard]] bool bound(Side side, const Address& address) const;

  /// Handler for packets whose server-side destination is unbound — the
  /// in-process analogue of an iptables REDIRECT rule. RecordShell's
  /// transparent proxy uses this to intercept connections to arbitrary
  /// origin addresses. The handler typically binds the address (e.g.
  /// spawns a listener) and calls redeliver().
  void set_server_default(Handler handler);

  /// Re-run destination lookup for a packet (used by the default handler
  /// after binding the address). Packets that still match no endpoint are
  /// counted undeliverable.
  void redeliver(Side side, Packet&& packet);

  /// Extra one-way propagation delay for a specific server IP, applied to
  /// packets entering and leaving that server — this is how LiveWeb gives
  /// each origin its own RTT while sharing one chain.
  void set_server_delay(Ipv4 ip, Microseconds one_way);
  [[nodiscard]] Microseconds server_delay(Ipv4 ip) const;

  /// Inject a packet from an endpoint on `from`; it traverses the chain
  /// and is delivered to the destination on the other side. Packets to
  /// unbound addresses are counted and dropped (tests assert on this).
  void send(Side from, Packet&& packet);

  /// Allocate a fresh client-side address (one IP per fabric client,
  /// ephemeral ports counting up from 49152).
  Address allocate_client_address();

  /// Allocate a fresh server-side IP (the replay shell's virtual
  /// interfaces; one per recorded origin).
  Ipv4 allocate_server_ip();

  [[nodiscard]] std::uint64_t next_packet_id() { return next_packet_id_++; }

  [[nodiscard]] std::uint64_t undeliverable_packets() const {
    return undeliverable_;
  }
  [[nodiscard]] std::uint64_t delivered_packets(Side side) const {
    return delivered_[side == Side::kClient ? 0 : 1];
  }

  /// The client's IP (all browser sockets share it, like one host).
  [[nodiscard]] Ipv4 client_ip() const { return client_ip_; }

 private:
  /// The packet lanes shared by all origins with one one-way delay (their
  /// key in lanes_): a constant delay keeps each lane's release times
  /// monotone, whatever set_server_delay later does to an origin.
  struct OriginLanes {
    explicit OriginLanes(Fabric& fabric);
    PacketChannel inject;   // server-side sends, into the chain downlink
    PacketChannel deliver;  // chain uplink exits, to the server endpoint
  };

  /// An origin's one-way delay beside its lanes (lanes_[delay]), so a
  /// server-side packet costs one lookup.
  struct OriginRoute {
    Microseconds delay{0};
    OriginLanes* lanes{nullptr};
  };

  void deliver(Side side, Packet&& packet);
  void dispatch(Side side, Packet&& packet, bool allow_default);
  OriginLanes& origin_lanes(Microseconds delay);

  EventLoop& loop_;
  Chain chain_;
  std::unordered_map<Address, Handler> endpoints_[2];
  Handler server_default_;
  std::unordered_map<Ipv4, OriginRoute> server_routes_;  // set delays only
  PacketChannel client_inject_;  // client-side sends, into the chain uplink
  std::unordered_map<Microseconds, OriginLanes> lanes_;  // by one-way delay
  OriginLanes* undelayed_lanes_{nullptr};  // lanes_[0], once first used
  Ipv4 client_ip_{Ipv4{100, 64, 0, 2}};
  std::uint16_t next_client_port_{49152};
  AddressAllocator server_ips_{Ipv4{10, 0, 0, 1}};
  std::uint64_t next_packet_id_{1};
  std::uint64_t undeliverable_{0};
  std::uint64_t delivered_[2]{0, 0};
};

}  // namespace mahimahi::net
