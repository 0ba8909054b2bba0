#include "obs/profile.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "util/json.hpp"

namespace mahimahi::obs {
namespace {

std::atomic<bool> g_enabled{false};

struct Totals {
  std::uint64_t count{0};
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};
};

std::mutex g_mutex;
std::map<std::string, Totals>& totals() {
  static std::map<std::string, Totals> map;
  return map;
}

thread_local ProfileScope* t_current = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Profiler::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Profiler::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Profiler::reset() {
  const std::lock_guard<std::mutex> lock{g_mutex};
  totals().clear();
}

std::vector<Profiler::Entry> Profiler::snapshot() {
  std::vector<Entry> entries;
  const std::lock_guard<std::mutex> lock{g_mutex};
  entries.reserve(totals().size());
  for (const auto& [name, t] : totals()) {  // std::map: sorted by name
    entries.push_back(Entry{name, t.count, t.total_ns, t.self_ns});
  }
  return entries;
}

std::string Profiler::report() {
  const std::vector<Entry> entries = snapshot();
  std::string out = "profile (wall clock)\n";
  char line[192];
  std::snprintf(line, sizeof line, "  %-24s %10s %12s %12s\n", "scope",
                "calls", "total ms", "self ms");
  out += line;
  for (const Entry& e : entries) {
    std::snprintf(line, sizeof line, "  %-24s %10llu %12.3f %12.3f\n",
                  e.name.c_str(), static_cast<unsigned long long>(e.count),
                  static_cast<double>(e.total_ns) / 1e6,
                  static_cast<double>(e.self_ns) / 1e6);
    out += line;
  }
  return out;
}

std::string Profiler::to_json() {
  const std::vector<Entry> entries = snapshot();
  std::string out =
      "{\n  \"schema\": \"mahimahi-profile-v1\",\n  \"scopes\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    util::append(out, i == 0 ? "\n" : ",\n", "    {\"name\": \"",
                 util::Escaped{e.name}, "\", \"count\": ", e.count,
                 ", \"total_ns\": ", e.total_ns,
                 ", \"self_ns\": ", e.self_ns, "}");
  }
  out += "\n  ]\n}\n";
  return out;
}

ProfileScope::ProfileScope(const char* name) : name_{name} {
  if (!Profiler::enabled()) {
    return;
  }
  active_ = true;
  start_ns_ = now_ns();
  parent_ = t_current;
  t_current = this;
}

ProfileScope::~ProfileScope() {
  if (!active_) {
    return;
  }
  const std::int64_t elapsed = now_ns() - start_ns_;
  t_current = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += elapsed;
  }
  const std::lock_guard<std::mutex> lock{g_mutex};
  Totals& t = totals()[name_];
  ++t.count;
  t.total_ns += elapsed;
  t.self_ns += elapsed - child_ns_;
}

}  // namespace mahimahi::obs
