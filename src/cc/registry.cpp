#include "cc/registry.hpp"

#include <map>
#include <stdexcept>

#include "cc/bbr_lite.hpp"
#include "cc/cubic.hpp"
#include "cc/reno.hpp"
#include "cc/vegas.hpp"

namespace mahimahi::cc {
namespace {

using Factory = std::unique_ptr<CongestionController> (*)(const Params&);

template <typename Controller>
std::unique_ptr<CongestionController> make(const Params& params) {
  return std::make_unique<Controller>(params);
}

/// The built-in controllers, by name. Immutable after its (thread-safe)
/// static initialisation, so lookups need no lock.
const std::map<std::string, Factory>& registry() {
  static const std::map<std::string, Factory> factories{
      {"bbr", &make<BbrLite>},
      {"cubic", &make<Cubic>},
      {"reno", &make<RenoNewReno>},
      {"vegas", &make<Vegas>},
  };
  return factories;
}

}  // namespace

std::unique_ptr<CongestionController> make_controller(const std::string& name,
                                                      const Params& params) {
  const std::string& key = name.empty() ? kDefaultController : name;
  const auto it = registry().find(key);
  if (it == registry().end()) {
    std::string known;
    for (const auto& [registered, unused] : registry()) {
      known += known.empty() ? registered : ", " + registered;
    }
    throw std::invalid_argument{"unknown congestion controller '" + key +
                                "' (registered: " + known + ")"};
  }
  return it->second(params);
}

bool is_registered(const std::string& name) {
  return registry().count(name.empty() ? kDefaultController : name) != 0;
}

std::vector<std::string> registered_controllers() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, unused] : registry()) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

}  // namespace mahimahi::cc
