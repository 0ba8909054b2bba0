#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cc/congestion_controller.hpp"

namespace mahimahi::cc {

/// Name the transport uses when a config leaves the controller unset.
inline constexpr const char* kDefaultController = "reno";

/// Instantiate a built-in controller by name ("reno", "cubic", "vegas" or
/// "bbr"). An empty name means kDefaultController. Throws
/// std::invalid_argument for unknown names, listing what is registered.
std::unique_ptr<CongestionController> make_controller(const std::string& name,
                                                      const Params& params);

/// True when `name` (or the default, for empty) resolves to a factory.
[[nodiscard]] bool is_registered(const std::string& name);

/// Registered controller names, sorted — the sweep axis for benches.
[[nodiscard]] std::vector<std::string> registered_controllers();

}  // namespace mahimahi::cc
