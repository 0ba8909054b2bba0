#pragma once

#include <functional>

namespace mahimahi::net {

/// Optional per-request observability callbacks, shared by the HTTP/1.1
/// and multiplexed client connections. All members may be null (the
/// default — zero overhead). The browser uses these to timestamp the
/// request→first-byte edges of its per-object waterfall.
struct FetchHooks {
  /// The carrying connection completed its handshake after this request
  /// was queued. Never fires for a request queued on an already-warm
  /// connection — HAR's "connect": -1 convention. Fires once.
  std::function<void()> on_connected;
  /// Request bytes were handed to the transport.
  std::function<void()> on_sent;
  /// First bytes of this request's response arrived.
  std::function<void()> on_first_byte;
};

/// Calls `hook` if armed, disarming it first so it fires at most once
/// (the call may re-enter the connection that owns the hook).
inline void fire_once(std::function<void()>& hook) {
  if (hook) {
    auto fire = std::move(hook);
    hook = nullptr;
    fire();
  }
}

}  // namespace mahimahi::net
