// Fleet throughput — how many independent replay sessions the runtime
// sustains when thousands of emulated users are multiplexed onto sharded
// event loops (src/fleet/). Two measurements:
//
//   - capacity (isolated fleets): 1000 full page loads, each in its own
//     connection namespace, sharded across the pool —
//     sessions/sec and page-loads/sec are the host-dependent throughput
//     figures; p50/p95 PLT and peak concurrency are deterministic.
//   - degradation (shared-world ladder): the same page loaded by fleets
//     of 1, 4 and 16 users contending in ONE namespace — p50 PLT rises
//     with fleet size (the offered-load story the experiment engine's
//     fleet axis grids over).
//
// Determinism contract under test: every session's seed and arrival time
// derive from (fleet_seed, global session index) alone, so the merged
// per-session report is byte-identical for ANY shard assignment and ANY
// thread count. --selfcheck re-runs the whole fleet at a different shard
// count on a different-size pool and byte-compares the serialized
// per-session reports; exit 1 on divergence.
//
// Scale:  1000 sessions, one shard per pool thread, arrivals 100 us apart
//         (tight enough that the whole fleet is concurrently in flight at
//         peak).
// Output: BENCH_fleet.json (override with MAHI_FLEET_JSON).

#include <cstring>
#include <string>

#include "bench/common.hpp"
#include "experiment/runner.hpp"
#include "corpus/site_generator.hpp"
#include "fleet/fleet.hpp"
#include "util/assert.hpp"

using namespace mahimahi;
using namespace mahimahi::bench;

namespace {

/// A small multi-origin page (3 servers, 8 objects) so the bench measures
/// the runtime's session-multiplexing overhead, not one giant page.
experiment::RecordedSite recorded_page() {
  corpus::SiteSpec spec;
  spec.name = "fleet-page";
  spec.seed = 7;
  spec.server_count = 3;
  spec.object_count = 8;
  spec.size_scale = 0.25;
  experiment::RecordedSite entry{corpus::generate_site(spec),
                                 record::RecordStore{}};
  core::SessionConfig config;
  config.seed = 11;
  core::RecordSession session{entry.site, corpus::LiveWebConfig{}, config};
  entry.store = session.record();
  return entry;
}

core::SessionConfig session_template() {
  core::SessionConfig config;
  // A 10 ms one-way delay shell keeps the transport honest (handshakes
  // and slow start actually pace the load) while staying cheap enough to
  // run a thousand sessions in the CI smoke tier.
  config.shells = {core::DelayShellSpec{10'000}};
  return config;
}

fleet::FleetSpec fleet_spec(int sessions, int shards, Microseconds stagger) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.shards = shards;
  spec.stagger = stagger;
  spec.seed = 1;
  spec.session = session_template();
  return spec;
}

/// Shared-world fleet of `sessions` users on one loop; returns the p50
/// PLT (ms) across its sessions. Deterministic.
double shared_world_p50(const experiment::RecordedSite& page,
                        int sessions) {
  fleet::MuxConfig config;
  config.fleet_seed = 21;
  config.stagger = 10'000;
  config.session = session_template();
  config.shared_world = true;
  fleet::SessionMux mux{page.store, page.site.primary_url(), config};
  for (int i = 0; i < sessions; ++i) {
    mux.add_session(i);
  }
  util::Samples plts;
  for (const fleet::SessionOutcome& outcome : mux.run()) {
    MAHI_ASSERT_MSG(outcome.success != 0, "shared-world load failed");
    plts.add(outcome.plt_ms);
  }
  return plts.percentile(50.0);
}

}  // namespace

int main(int argc, char** argv) {
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selfcheck") == 0) {
      selfcheck = true;
    } else {
      std::fprintf(stderr, "usage: %s [--selfcheck]\n", argv[0]);
      return 2;
    }
  }

  constexpr int sessions = 1000;
  constexpr int shards = 0;  // pool-sized
  constexpr Microseconds stagger = 100;

  std::printf("=== fleet throughput: %d sessions, stagger %lld us ===\n",
              sessions, static_cast<long long>(stagger));
  const experiment::RecordedSite page = recorded_page();

  const fleet::FleetResult result = fleet::run_fleet(
      page.store, page.site.primary_url(), fleet_spec(sessions, shards, stagger));
  std::printf(
      "fleet: %d sessions over %d shard(s): %.2f s wall, %.1f sessions/s, "
      "%.1f page-loads/s\n",
      sessions, result.shards, result.wall_seconds,
      result.sessions_per_second, result.page_loads_per_second);
  std::printf("       plt p50 %.1f ms, p95 %.1f ms, peak concurrent %zu, "
              "failed %zu\n",
              result.plt_p50_ms, result.plt_p95_ms, result.peak_concurrent,
              result.failed);
  if (result.failed != 0) {
    std::fprintf(stderr, "FAIL: %zu session(s) failed their page load\n",
                 result.failed);
    return 1;
  }

  // --- shared-world degradation ladder (deterministic) ------------------
  std::puts(
      "-------------------------------------------------------------------");
  double ladder_p50[3] = {0, 0, 0};
  const int ladder_sizes[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    ladder_p50[i] = shared_world_p50(page, ladder_sizes[i]);
    std::printf("shared world, %2d user(s): plt p50 %8.1f ms\n",
                ladder_sizes[i], ladder_p50[i]);
  }
  if (!(ladder_p50[2] > ladder_p50[0])) {
    // 16 users contending for 3 origin servers and one shell stack must
    // be slower than a lone user — if not, sessions are not actually
    // sharing the world and the offered-load axis measures nothing.
    std::fprintf(stderr, "FAIL: no contention degradation (p50 %0.1f ms at "
                 "16 users vs %0.1f ms solo)\n",
                 ladder_p50[2], ladder_p50[0]);
    return 1;
  }

  PerfReport report;
  // Wall-clock rows: host-dependent (baselines mark them informational).
  report.add({"fleet_sessions_per_sec", 0, result.sessions_per_second, 0});
  report.add({"fleet_page_loads_per_sec", 0, result.page_loads_per_second, 0});
  // Deterministic rows: pure functions of (seed, page, session template).
  report.add({"fleet_plt_p50_ms", result.plt_p50_ms * 1e6, 0, 0});
  report.add({"fleet_plt_p95_ms", result.plt_p95_ms * 1e6, 0, 0});
  report.add({"fleet_peak_concurrent",
              static_cast<double>(result.peak_concurrent), 0, 0});
  for (int i = 0; i < 3; ++i) {
    report.add({"fleet_shared_plt_p50_ms/" + std::to_string(ladder_sizes[i]),
                ladder_p50[i] * 1e6, 0, 0});
  }
  const char* out = std::getenv("MAHI_FLEET_JSON");
  report.write(out != nullptr ? out : "BENCH_fleet.json");

  if (selfcheck) {
    // Same fleet, deliberately different shard count AND thread count:
    // the per-session report must not move by a single byte.
    std::puts(
        "-------------------------------------------------------------------");
    const std::string reference = fleet::serialize_outcomes(result.sessions);
    const int other_shards = result.shards == 1 ? 3 : 1;
    core::ParallelRunner other_pool{
        core::ParallelRunner::shared().thread_count() == 1 ? 3 : 1};
    const fleet::FleetResult rerun =
        fleet::run_fleet(page.store, page.site.primary_url(),
                         fleet_spec(sessions, other_shards, stagger),
                         &other_pool);
    const bool identical =
        fleet::serialize_outcomes(rerun.sessions) == reference;
    std::printf("selfcheck: per-session reports byte-identical at "
                "%d vs %d shard(s), %d vs %d thread(s): %s\n",
                result.shards, rerun.shards,
                core::ParallelRunner::shared().thread_count(),
                other_pool.thread_count(), identical ? "yes" : "NO");
    if (!identical) {
      return 1;
    }
  }
  return 0;
}
