#include "net/fabric.hpp"

#include <stdexcept>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mahimahi::net {
namespace {

constexpr std::size_t side_index(Side side) {
  return side == Side::kClient ? 0 : 1;
}

}  // namespace

Fabric::OriginLanes::OriginLanes(Fabric& fabric)
    : inject{fabric.loop_,
             [&fabric](Packet&& p) { fabric.chain_.send_downlink(std::move(p)); }},
      deliver{fabric.loop_, [&fabric](Packet&& p) {
                fabric.dispatch(Side::kServer, std::move(p), /*allow_default=*/true);
              }} {}

Fabric::Fabric(EventLoop& loop)
    : loop_{loop},
      client_inject_{loop, [this](Packet&& p) { chain_.send_uplink(std::move(p)); }} {
  chain_.set_outputs(
      // Uplink exit: deliver on the server side.
      [this](Packet&& p) { deliver(Side::kServer, std::move(p)); },
      // Downlink exit: deliver on the client side.
      [this](Packet&& p) { deliver(Side::kClient, std::move(p)); });
}

void Fabric::bind(Side side, const Address& address, Handler handler) {
  MAHI_ASSERT(handler != nullptr);
  auto& table = endpoints_[side_index(side)];
  if (table.contains(address)) {
    throw std::invalid_argument{"address already bound: " + address.to_string()};
  }
  table.emplace(address, std::move(handler));
}

void Fabric::unbind(Side side, const Address& address) {
  endpoints_[side_index(side)].erase(address);
}

bool Fabric::bound(Side side, const Address& address) const {
  return endpoints_[side_index(side)].contains(address);
}

void Fabric::send(Side from, Packet&& packet) {
  packet.id = next_packet_id();
  // Injection always goes through the event queue: a packet can never be
  // delivered before send() returns (as in a physical network). This bars
  // endpoint re-entrancy even when the chain itself adds zero latency.
  // Packets leaving a delayed server pay that origin's one-way delay here.
  if (from == Side::kClient) {
    client_inject_.push(loop_.now(), std::move(packet));
    return;
  }
  if (const auto it = server_routes_.find(packet.src.ip);
      it != server_routes_.end()) {
    const OriginRoute route = it->second;
    route.lanes->inject.push(loop_.now() + route.delay, std::move(packet));
    return;
  }
  if (undelayed_lanes_ == nullptr) {
    undelayed_lanes_ = &origin_lanes(0);
  }
  undelayed_lanes_->inject.push(loop_.now(), std::move(packet));
}

Fabric::OriginLanes& Fabric::origin_lanes(Microseconds delay) {
  return lanes_.try_emplace(delay, *this).first->second;
}

void Fabric::set_server_default(Handler handler) {
  server_default_ = std::move(handler);
}

void Fabric::redeliver(Side side, Packet&& packet) {
  dispatch(side, std::move(packet), /*allow_default=*/false);
}

void Fabric::set_server_delay(Ipv4 ip, Microseconds one_way) {
  MAHI_ASSERT(one_way >= 0);
  server_routes_[ip] = OriginRoute{one_way, &origin_lanes(one_way)};
}

Microseconds Fabric::server_delay(Ipv4 ip) const {
  const auto it = server_routes_.find(ip);
  return it == server_routes_.end() ? 0 : it->second.delay;
}

void Fabric::deliver(Side side, Packet&& packet) {
  // Packets arriving at a delayed server pay that origin's one-way delay.
  if (side == Side::kServer) {
    if (const auto it = server_routes_.find(packet.dst.ip);
        it != server_routes_.end() && it->second.delay > 0) {
      const OriginRoute route = it->second;
      route.lanes->deliver.push(loop_.now() + route.delay, std::move(packet));
      return;
    }
  }
  dispatch(side, std::move(packet), /*allow_default=*/true);
}

void Fabric::dispatch(Side side, Packet&& packet, bool allow_default) {
  auto& table = endpoints_[side_index(side)];
  const auto it = table.find(packet.dst);
  if (it == table.end()) {
    if (side == Side::kServer && allow_default && server_default_) {
      server_default_(std::move(packet));
      return;
    }
    ++undeliverable_;
    MAHI_DEBUG("fabric") << "undeliverable packet to " << packet.dst.to_string();
    return;
  }
  ++delivered_[side_index(side)];
  // The handler may unbind itself (connection close) — copy the handler
  // out so erasure during the call stays safe.
  const Handler handler = it->second;
  handler(std::move(packet));
}

Address Fabric::allocate_client_address() {
  MAHI_ASSERT_MSG(next_client_port_ != 0, "ephemeral ports exhausted");
  return Address{client_ip_, next_client_port_++};
}

Ipv4 Fabric::allocate_server_ip() { return server_ips_.next_ip(); }

}  // namespace mahimahi::net
