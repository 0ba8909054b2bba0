#include "cc/registry.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "cc/bbr_lite.hpp"
#include "cc/cubic.hpp"
#include "cc/reno.hpp"
#include "cc/vegas.hpp"

namespace mahimahi::cc {
namespace {

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, Factory>& registry() {
  static std::map<std::string, Factory> factories = [] {
    std::map<std::string, Factory> built_in;
    built_in["reno"] = [](const Params& p) {
      return std::make_unique<RenoNewReno>(p);
    };
    built_in["cubic"] = [](const Params& p) {
      return std::make_unique<Cubic>(p);
    };
    built_in["vegas"] = [](const Params& p) {
      return std::make_unique<Vegas>(p);
    };
    built_in["bbr"] = [](const Params& p) {
      return std::make_unique<BbrLite>(p);
    };
    return built_in;
  }();
  return factories;
}

}  // namespace

std::unique_ptr<CongestionController> make_controller(const std::string& name,
                                                      const Params& params) {
  const std::string& key = name.empty() ? kDefaultController : name;
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock{registry_mutex()};
    const auto it = registry().find(key);
    if (it == registry().end()) {
      std::string known;
      for (const auto& [registered, unused] : registry()) {
        known += known.empty() ? registered : ", " + registered;
      }
      throw std::invalid_argument{"unknown congestion controller '" + key +
                                  "' (registered: " + known + ")"};
    }
    factory = it->second;
  }
  return factory(params);
}

void register_controller(const std::string& name, Factory factory) {
  if (name.empty() || factory == nullptr) {
    throw std::invalid_argument{"controller registration needs a name and factory"};
  }
  const std::lock_guard<std::mutex> lock{registry_mutex()};
  registry()[name] = std::move(factory);
}

bool is_registered(const std::string& name) {
  const std::lock_guard<std::mutex> lock{registry_mutex()};
  return registry().count(name.empty() ? kDefaultController : name) != 0;
}

std::vector<std::string> registered_controllers() {
  std::vector<std::string> names;
  const std::lock_guard<std::mutex> lock{registry_mutex()};
  names.reserve(registry().size());
  for (const auto& [name, unused] : registry()) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

}  // namespace mahimahi::cc
