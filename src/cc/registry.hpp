#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/congestion_controller.hpp"

namespace mahimahi::cc {

/// Name the transport uses when a config leaves the controller unset.
inline constexpr const char* kDefaultController = "reno";

using Factory =
    std::function<std::unique_ptr<CongestionController>(const Params&)>;

/// Instantiate a controller by registry name ("reno", "cubic", "vegas",
/// "bbr", or anything added via register_controller). An empty name means
/// kDefaultController. Throws std::invalid_argument for unknown names,
/// listing what is registered.
std::unique_ptr<CongestionController> make_controller(const std::string& name,
                                                      const Params& params);

/// Register (or replace) a controller factory under `name`. Registration
/// is thread-safe, but to keep parallel measurement deterministic, custom
/// controllers should be registered before any sessions fan out.
void register_controller(const std::string& name, Factory factory);

/// True when `name` (or the default, for empty) resolves to a factory.
[[nodiscard]] bool is_registered(const std::string& name);

/// Registered controller names, sorted — the sweep axis for benches.
[[nodiscard]] std::vector<std::string> registered_controllers();

}  // namespace mahimahi::cc
