// Fault resilience — what the client's retry/timeout/backoff machinery
// buys under deterministic origin faults (src/fault/). Three scenarios on
// one recorded page:
//
//   healthy    no faults (the control — must match a fault-free session)
//   undefended origin crashes mid-response, client never retries: crashed
//              objects land as objects_failed and the page degrades
//   defended   identical crash schedule, but the client retries with
//              capped exponential backoff and per-request deadlines
//
// Claims under test (exit 1 when violated):
//   - the crash schedule actually fires (undefended loses objects),
//   - retries recover what no-retry loses (defended fails strictly fewer
//     objects and completes strictly more loads),
//   - graceful degradation is bounded: degraded PLT <= PLT on every load,
//     and equals PLT on every clean load.
//
// Determinism contract: a faulted load is as reproducible as a healthy
// one — every fault decision is a pure function of (plan seed, event
// index). --selfcheck re-runs the defended scenario on a different-size
// pool and byte-compares the serialized per-load reports.
//
// Scale knobs: MAHI_FAULT_LOADS (loads per scenario, default 12).
// Output:      BENCH_faults.json (override with MAHI_FAULT_JSON).

#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "experiment/runner.hpp"
#include "corpus/site_generator.hpp"
#include "fault/fault.hpp"
#include "web/browser.hpp"

using namespace mahimahi;
using namespace mahimahi::bench;

namespace {

/// A small multi-origin page: enough objects that a per-request crash
/// coin at p=0.15 fires several times per scenario.
experiment::RecordedSite recorded_page() {
  corpus::SiteSpec spec;
  spec.name = "fault-page";
  spec.seed = 17;
  spec.server_count = 3;
  spec.object_count = 10;
  spec.size_scale = 0.25;
  experiment::RecordedSite entry{corpus::generate_site(spec),
                                 record::RecordStore{}};
  core::SessionConfig config;
  config.seed = 23;
  core::RecordSession session{entry.site, corpus::LiveWebConfig{}, config};
  entry.store = session.record();
  return entry;
}

struct ScenarioResult {
  util::Samples plt_ms;
  util::Samples degraded_ms;
  std::size_t loads_failed{0};
  std::uint64_t objects_failed{0};
  std::uint64_t retries{0};
  std::uint64_t timeouts{0};
  std::string serialized;  // per-load report, fixed precision
  bool degraded_bounded{true};
  bool clean_loads_undegraded{true};
};

ScenarioResult run_scenario(const experiment::RecordedSite& page,
                            const std::string& spec, int loads,
                            core::ParallelRunner& pool) {
  core::SessionConfig config;
  config.seed = 97;
  config.shells = {core::DelayShellSpec{10'000}};
  if (!spec.empty()) {
    config.fault = fault::parse_fault_spec(spec);
  }
  const core::ReplaySession session{page.store, config};
  const auto results = pool.map(loads, [&](int i) {
    return session.load_once(page.site.primary_url(), i);
  });

  ScenarioResult scenario;
  for (int i = 0; i < loads; ++i) {
    const web::PageLoadResult& r = results[static_cast<std::size_t>(i)];
    scenario.plt_ms.add(to_ms(r.page_load_time));
    scenario.degraded_ms.add(to_ms(r.degraded_page_load_time));
    if (!r.success) {
      ++scenario.loads_failed;
    }
    scenario.objects_failed += r.objects_failed;
    scenario.retries += r.retries;
    scenario.timeouts += r.timeouts;
    if (r.degraded_page_load_time > r.page_load_time) {
      scenario.degraded_bounded = false;
    }
    if (r.objects_failed == 0 &&
        r.degraded_page_load_time != r.page_load_time) {
      scenario.clean_loads_undegraded = false;
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "load %3d ok=%d plt_ms=%.6f degraded_ms=%.6f failed=%zu "
                  "retries=%zu timeouts=%zu\n",
                  i, r.success ? 1 : 0, to_ms(r.page_load_time),
                  to_ms(r.degraded_page_load_time), r.objects_failed,
                  r.retries, r.timeouts);
    scenario.serialized += line;
  }
  return scenario;
}

void print_scenario(const char* name, const ScenarioResult& s) {
  std::printf("%-10s plt p50 %8.1f ms  degraded p50 %8.1f ms  "
              "loads-failed %zu  objects-failed %llu  retries %llu  "
              "timeouts %llu\n",
              name, s.plt_ms.percentile(50.0), s.degraded_ms.percentile(50.0),
              s.loads_failed,
              static_cast<unsigned long long>(s.objects_failed),
              static_cast<unsigned long long>(s.retries),
              static_cast<unsigned long long>(s.timeouts));
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

  const int loads = env_int("MAHI_FAULT_LOADS", 12);
  constexpr const char* kCrash = "crash:p=0.15";
  const std::string undefended = std::string{kCrash} + " noretry";
  const std::string defended =
      std::string{kCrash} + " retry:deadline=4s,max=3,base=200ms,cap=2s";

  std::printf("=== fault resilience: %d loads per scenario ===\n", loads);
  const experiment::RecordedSite page = recorded_page();
  core::ParallelRunner& pool = shared_runner();

  const ScenarioResult healthy = run_scenario(page, "", loads, pool);
  const ScenarioResult lost = run_scenario(page, undefended, loads, pool);
  const ScenarioResult saved = run_scenario(page, defended, loads, pool);
  print_scenario("healthy", healthy);
  print_scenario("undefended", lost);
  print_scenario("defended", saved);

  bool ok = true;
  if (healthy.objects_failed != 0 || healthy.loads_failed != 0) {
    std::fprintf(stderr, "FAIL: healthy control lost objects\n");
    ok = false;
  }
  if (lost.objects_failed == 0) {
    std::fprintf(stderr, "FAIL: crash schedule never fired (undefended "
                         "scenario lost nothing)\n");
    ok = false;
  }
  if (saved.objects_failed >= lost.objects_failed) {
    std::fprintf(stderr,
                 "FAIL: retries recovered nothing (%llu objects failed "
                 "defended vs %llu undefended)\n",
                 static_cast<unsigned long long>(saved.objects_failed),
                 static_cast<unsigned long long>(lost.objects_failed));
    ok = false;
  }
  if (saved.loads_failed >= lost.loads_failed && lost.loads_failed > 0) {
    std::fprintf(stderr,
                 "FAIL: defended client completed no more loads (%zu failed "
                 "vs %zu undefended)\n",
                 saved.loads_failed, lost.loads_failed);
    ok = false;
  }
  if (saved.retries == 0) {
    std::fprintf(stderr, "FAIL: defended client never retried\n");
    ok = false;
  }
  for (const ScenarioResult* s : {&healthy, &lost, &saved}) {
    if (!s->degraded_bounded) {
      std::fprintf(stderr, "FAIL: degraded PLT exceeded PLT on some load\n");
      ok = false;
    }
    if (!s->clean_loads_undegraded) {
      std::fprintf(stderr,
                   "FAIL: a clean load reported degraded PLT != PLT\n");
      ok = false;
    }
  }
  if (!ok) {
    return 1;
  }

  PerfReport report;
  // All rows are deterministic: pure functions of (seed, page, spec).
  report.add({"fault_plt_p50_ms/healthy",
              healthy.plt_ms.percentile(50.0) * 1e6, 0, 0});
  report.add({"fault_plt_p50_ms/undefended",
              lost.plt_ms.percentile(50.0) * 1e6, 0, 0});
  report.add({"fault_plt_p50_ms/defended",
              saved.plt_ms.percentile(50.0) * 1e6, 0, 0});
  report.add({"fault_degraded_p50_ms/undefended",
              lost.degraded_ms.percentile(50.0) * 1e6, 0, 0});
  report.add({"fault_degraded_p50_ms/defended",
              saved.degraded_ms.percentile(50.0) * 1e6, 0, 0});
  report.add({"fault_objects_failed/undefended",
              static_cast<double>(lost.objects_failed), 0, 0});
  report.add({"fault_objects_failed/defended",
              static_cast<double>(saved.objects_failed), 0, 0});
  report.add({"fault_retries/defended",
              static_cast<double>(saved.retries), 0, 0});
  const char* out = std::getenv("MAHI_FAULT_JSON");
  report.write(out != nullptr ? out : "BENCH_faults.json");

  if (selfcheck) {
    // The defended (most machinery engaged: crashes, retries, backoff
    // timers, deadlines) scenario re-run on a different-size pool must
    // reproduce the per-load report byte for byte.
    std::puts(
        "-------------------------------------------------------------------");
    core::ParallelRunner other{pool.thread_count() == 1 ? 3 : 1};
    const ScenarioResult rerun = run_scenario(page, defended, loads, other);
    const bool identical = rerun.serialized == saved.serialized;
    std::printf("selfcheck: faulted per-load reports byte-identical at "
                "%d vs %d thread(s): %s\n",
                pool.thread_count(), other.thread_count(),
                identical ? "yes" : "NO");
    if (!identical) {
      return 1;
    }
  }
  return 0;
}
