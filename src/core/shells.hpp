#pragma once

#include <memory>
#include <variant>
#include <vector>

#include "core/host_profile.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "obs/trace.hpp"
#include "trace/trace.hpp"
#include "util/random.hpp"

namespace mahimahi::core {

/// mm-delay: fixed per-packet one-way delay in each direction.
struct DelayShellSpec {
  Microseconds one_way{0};
};

/// mm-link: trace-driven link, one packet-delivery trace per direction,
/// optional queue disciplines (droptail/drophead/codel/infinite).
struct LinkShellSpec {
  std::shared_ptr<const trace::PacketTrace> uplink;
  std::shared_ptr<const trace::PacketTrace> downlink;
  net::QueueSpec uplink_queue{};
  net::QueueSpec downlink_queue{};

  static LinkShellSpec constant_rate_mbps(double up_mbps, double down_mbps);
};

/// mm-loss: i.i.d. packet loss per direction.
struct LossShellSpec {
  double uplink_loss{0.0};
  double downlink_loss{0.0};
};

using ShellSpec = std::variant<DelayShellSpec, LinkShellSpec, LossShellSpec>;

/// Instantiate a stack of shells on a fabric's chain.
///
/// `shells` is listed in command-line order — `{mm-delay 30, mm-link u d}`
/// means `mm-delay 30 mm-link u d <app>` — so the *last* entry is the
/// innermost shell, nearest the application, exactly like nesting the real
/// tools. Each shell contributes its functional element plus a per-packet
/// forwarding cost from the host profile (the Figure 2 overhead).
///
/// When `tracer` is set, every link shell records queue events into it,
/// labeled "shell<i>/up|down" with i the shell's command-line index.
void apply_shells(net::Fabric& fabric, const std::vector<ShellSpec>& shells,
                  const HostProfile& host, const util::Rng& rng,
                  obs::Tracer* tracer = nullptr,
                  std::int32_t trace_session = 0);

}  // namespace mahimahi::core
