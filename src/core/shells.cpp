#include "core/shells.hpp"

#include "trace/synthesis.hpp"

namespace mahimahi::core {
namespace {
using namespace mahimahi::literals;
}

LinkShellSpec LinkShellSpec::constant_rate_mbps(double up_mbps, double down_mbps) {
  LinkShellSpec spec;
  spec.uplink = std::make_shared<const trace::PacketTrace>(
      trace::constant_rate(up_mbps * 1e6, 2_s));
  spec.downlink = std::make_shared<const trace::PacketTrace>(
      trace::constant_rate(down_mbps * 1e6, 2_s));
  return spec;
}

void apply_shells(net::Fabric& fabric, const std::vector<ShellSpec>& shells,
                  const HostProfile& host, const util::Rng& rng,
                  obs::Tracer* tracer, std::int32_t trace_session) {
  // Innermost shell (last in command-line order) is nearest the app, so it
  // must be pushed first (chain index 0 is the application side).
  for (auto it = shells.rbegin(); it != shells.rend(); ++it) {
    Microseconds packet_cost = 0;
    if (std::holds_alternative<DelayShellSpec>(*it)) {
      packet_cost = host.delay_shell_packet_cost;
    } else if (std::holds_alternative<LinkShellSpec>(*it)) {
      packet_cost = host.link_shell_packet_cost;
    } else if (std::holds_alternative<LossShellSpec>(*it)) {
      packet_cost = host.loss_shell_packet_cost;
    }
    // Crossing a shell boundary costs one TUN hop on the host.
    if (packet_cost > 0) {
      fabric.chain().push_back(std::make_unique<net::ProcessingDelayBox>(
          fabric.loop(), packet_cost));
    }
    if (const auto* delay = std::get_if<DelayShellSpec>(&*it)) {
      fabric.chain().push_back(
          std::make_unique<net::DelayBox>(fabric.loop(), delay->one_way));
    } else if (const auto* link = std::get_if<LinkShellSpec>(&*it)) {
      auto trace_link = std::make_unique<net::TraceLink>(
          fabric.loop(), *link->uplink, *link->downlink, link->uplink_queue,
          link->downlink_queue);
      if (tracer != nullptr) {
        // Name by command-line position so nested shells stay tellable
        // apart in the exported trace.
        const auto shell_index = shells.rend() - it - 1;
        trace_link->set_tracer(tracer, trace_session,
                               "shell" + std::to_string(shell_index));
      }
      fabric.chain().push_back(std::move(trace_link));
    } else if (const auto* loss = std::get_if<LossShellSpec>(&*it)) {
      fabric.chain().push_back(std::make_unique<net::LossBox>(
          rng.fork("loss-shell"), loss->uplink_loss, loss->downlink_loss));
    }
  }
}

}  // namespace mahimahi::core
