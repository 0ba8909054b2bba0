// Trace overhead — the cost of the observability layer (src/obs/), both
// off and on:
//
//   untraced   config.tracer == nullptr: every instrumentation site is a
//              single pointer test (the production default)
//   traced     one obs::Tracer per load recording link/tcp/dns/browser
//              events plus the per-object waterfall, then exported to all
//              three formats (Chrome trace JSON, HAR, CSV)
//
// Claims under test (exit 1 when violated):
//   - tracing is an observer, not a participant: the traced loads report
//     bit-identical PLTs to the untraced ones (no loop events, no RNG
//     draws, no timing perturbation from recording),
//   - the trace is non-trivial (events from link, tcp, dns and browser
//     layers all present).
//
// Heap work: a counting global operator new, armed only inside the
// untraced load_once() calls, reports heap allocations and bytes
// allocated per replayed load (world build, serving, parsing, browsing).
// Each HTTP body is copied once per side, so a copy or allocation that
// creeps back into the replay path moves these rows past the gate.
//
// Bulk-probe heap work: the same counting operator new around one fixed
// net::run_multi_bulk_flow (six mixed-controller flows, 48 Mbit/s,
// droptail 256, 0.05% loss, 5 s) reports its allocations and kB, plus
// the bottleneck arrivals that show the simulation itself did not move.
// A per-packet log or a per-top-up payload copy moves these rows.
//
// Event-loop work: the same untraced loads again, on loops this driver
// owns, report the loop's counters per load (events scheduled,
// dispatched, cancelled, re-armed in place, re-keyed, tombstones popped).
// A timer that goes back to cancel-and-reschedule moves these rows.
//
// Output: BENCH_obs.json (override with MAHI_OBS_JSON). Wall-clock rows
// are informational (negative tolerance in the baseline); event/object
// counts, export byte sizes, the heap and the loop rows are deterministic
// and pinned at the default 0.05 band.
//
// Scale: 6 loads per scenario.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/sessions.hpp"
#include "experiment/runner.hpp"
#include "corpus/site_generator.hpp"
#include "net/bulk_probe.hpp"
#include "net/event_loop.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "web/browser.hpp"

namespace {
std::atomic<bool> g_count_heap{false};
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_heap.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}
// Out of line: inlined into a caller, GCC would pair the free() with that
// caller's `new` and warn about a mismatch.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace mahimahi;
using namespace mahimahi::bench;

namespace {

experiment::RecordedSite recorded_page() {
  corpus::SiteSpec spec;
  spec.name = "obs-page";
  spec.seed = 29;
  spec.server_count = 3;
  spec.object_count = 12;
  spec.size_scale = 0.25;
  experiment::RecordedSite entry{corpus::generate_site(spec),
                                 record::RecordStore{}};
  core::SessionConfig config;
  config.seed = 31;
  core::RecordSession session{entry.site, corpus::LiveWebConfig{}, config};
  entry.store = session.record();
  return entry;
}

core::SessionConfig session_config() {
  core::SessionConfig config;
  config.seed = 41;
  // Delay + a rate-limited link, so the trace carries link-layer
  // enqueue/dequeue events alongside tcp/dns/browser ones.
  config.shells = {core::DelayShellSpec{15'000},
                   core::LinkShellSpec::constant_rate_mbps(12.0, 12.0)};
  return config;
}

/// The bulk-transport workload's 48 Mbit/s droptail cell, shortened.
net::MultiBulkFlowSpec bulk_probe_spec() {
  net::MultiBulkFlowSpec spec;
  spec.controllers = {"reno", "cubic", "bbr", "vegas", "cubic", "reno"};
  spec.duration = 5'000'000;
  spec.link_mbps = 48;
  spec.queue.discipline = "droptail";
  spec.queue.max_packets = 256;
  spec.loss = 0.0005;
  return spec;
}

}  // namespace

int main() {
  constexpr int loads = 6;
  const experiment::RecordedSite page = recorded_page();
  const std::string url = page.site.primary_url();

  // Loads run sequentially on purpose: the wall-clock comparison should
  // measure the instrumentation, not the pool scheduler.
  std::vector<double> untraced_plt_us;
  const WallTimer untraced_timer;
  {
    const core::ReplaySession session{page.store, session_config()};
    for (int i = 0; i < loads; ++i) {
      g_count_heap = true;
      const Microseconds plt = session.load_once(url, i).page_load_time;
      g_count_heap = false;
      untraced_plt_us.push_back(static_cast<double>(plt));
    }
  }
  const double untraced_s = untraced_timer.elapsed_seconds();

  net::EventLoop::Counters loop_work;
  bool loop_loads_match = true;
  for (int i = 0; i < loads; ++i) {
    net::EventLoop loop;
    {
      core::ReplayWorld world{loop, page.store, session_config(),
                              core::ReplaySession::Options{}, i};
      Microseconds plt = -1;
      world.browser().load(url, [&plt](const web::PageLoadResult& result) {
        plt = result.page_load_time;
      });
      loop.run();
      loop_loads_match = loop_loads_match &&
                         static_cast<double>(plt) == untraced_plt_us[i];
    }  // teardown's cancels count too
    const net::EventLoop::Counters& c = loop.counters();
    loop_work.scheduled += c.scheduled;
    loop_work.dispatched += c.dispatched;
    loop_work.cancelled += c.cancelled;
    loop_work.rearmed += c.rearmed;
    loop_work.rekeyed += c.rekeyed;
    loop_work.tombstones += c.tombstones;
    loop_work.heap_pushes += c.heap_pushes;
  }

  const std::uint64_t replay_allocs = g_heap_allocs.exchange(0);
  const std::uint64_t replay_bytes = g_heap_bytes.exchange(0);
  const net::MultiBulkFlowSpec bulk_spec = bulk_probe_spec();
  g_count_heap = true;
  const net::MultiBulkFlowReport bulk = net::run_multi_bulk_flow(bulk_spec);
  g_count_heap = false;
  const std::uint64_t bulk_allocs = g_heap_allocs.exchange(0);
  const std::uint64_t bulk_bytes = g_heap_bytes.exchange(0);

  std::vector<double> traced_plt_us;
  std::vector<obs::LoadTrace> traces;
  const WallTimer traced_timer;
  for (int i = 0; i < loads; ++i) {
    // One tracer per load, exactly as the experiment engine arranges it.
    obs::Tracer tracer;
    core::SessionConfig config = session_config();
    config.tracer = &tracer;
    const core::ReplaySession session{page.store, config};
    traced_plt_us.push_back(
        static_cast<double>(session.load_once(url, i).page_load_time));
    traces.push_back(obs::LoadTrace{i, tracer.take()});
  }
  const double traced_s = traced_timer.elapsed_seconds();

  bool ok = true;
  if (traced_plt_us != untraced_plt_us) {
    std::fprintf(stderr,
                 "FAIL: tracing perturbed the simulation (PLTs differ)\n");
    ok = false;
  }

  if (!loop_loads_match) {
    std::fprintf(stderr,
                 "FAIL: the loop-counter loads differ from load_once's\n");
    ok = false;
  }

  std::size_t events = 0;
  std::size_t objects = 0;
  bool saw_link = false;
  bool saw_tcp = false;
  bool saw_dns = false;
  bool saw_browser = false;
  for (const obs::LoadTrace& load : traces) {
    events += load.buffer.events.size();
    objects += load.buffer.objects.size();
    for (const obs::TraceEvent& e : load.buffer.events) {
      saw_link = saw_link || e.layer == obs::Layer::kLink;
      saw_tcp = saw_tcp || e.layer == obs::Layer::kTcp;
      saw_dns = saw_dns || e.layer == obs::Layer::kDns;
      saw_browser = saw_browser || e.layer == obs::Layer::kBrowser;
    }
  }
  if (!saw_link || !saw_tcp || !saw_dns || !saw_browser) {
    std::fprintf(stderr,
                 "FAIL: trace missing a layer (link=%d tcp=%d dns=%d "
                 "browser=%d)\n",
                 saw_link, saw_tcp, saw_dns, saw_browser);
    ok = false;
  }

  const obs::TraceMeta meta{"bench-obs", "obs-page", 0, 41};
  const std::string chrome = obs::to_chrome_trace(meta, traces);
  const std::string har = obs::to_har(meta, traces);
  const std::string csv = obs::to_csv(meta, traces);

  // Derived metrics are a pure function of the buffers; the catalog size
  // and serialized bytes are pinned alongside the export sizes.
  const obs::MetricsSnapshot metrics = obs::derive_cell_metrics(traces);
  const std::string metrics_json = metrics.to_json();
  if (obs::derive_cell_metrics(traces).to_json() != metrics_json) {
    std::fprintf(stderr, "FAIL: metric derivation is not deterministic\n");
    ok = false;
  }

  const double per_load_ns_untraced = untraced_s * 1e9 / loads;
  const double per_load_ns_traced = traced_s * 1e9 / loads;
  const double heap_allocs_per_load =
      static_cast<double>(replay_allocs) / loads;
  const double heap_kbytes_per_load =
      static_cast<double>(replay_bytes) / 1024.0 / loads;
  const double bulk_kbytes = static_cast<double>(bulk_bytes) / 1024.0;
  std::puts(
      "-------------------------------------------------------------------");
  std::printf("trace overhead: %d load(s), %zu events, %zu objects\n", loads,
              events, objects);
  std::printf("  untraced  %10.1f ms/load\n", per_load_ns_untraced / 1e6);
  std::printf("  traced    %10.1f ms/load  (%+.1f%%)\n",
              per_load_ns_traced / 1e6,
              untraced_s > 0
                  ? (per_load_ns_traced / per_load_ns_untraced - 1.0) * 100.0
                  : 0.0);
  std::printf("  exports   chrome %zu B, har %zu B, csv %zu B\n",
              chrome.size(), har.size(), csv.size());
  std::printf("  metrics   %zu series, %zu B json\n", metrics.size(),
              metrics_json.size());
  std::printf("  heap      %.1f allocs/load, %.1f kB/load (untraced)\n",
              heap_allocs_per_load, heap_kbytes_per_load);
  std::printf("  bulk      %llu allocs, %.1f kB, %llu bottleneck arrivals "
              "(one 5 s six-flow probe)\n",
              static_cast<unsigned long long>(bulk_allocs), bulk_kbytes,
              static_cast<unsigned long long>(bulk.bottleneck.arrivals));
  const auto per_load = [](std::uint64_t count) {
    return static_cast<double>(count) / loads;
  };
  std::printf("  loop      %.1f scheduled, %.1f dispatched, %.1f cancelled, "
              "%.1f re-armed, %.1f re-keyed, %.1f tombstones, %.1f heap pushes "
              "per load\n",
              per_load(loop_work.scheduled), per_load(loop_work.dispatched),
              per_load(loop_work.cancelled), per_load(loop_work.rearmed),
              per_load(loop_work.rekeyed), per_load(loop_work.tombstones),
              per_load(loop_work.heap_pushes));
  if (!ok) {
    return 1;
  }

  PerfReport report;
  // Wall-clock rows (informational in the baseline — shared CI runners).
  report.add({"obs_untraced_ns_per_load", per_load_ns_untraced, 0, 0});
  report.add({"obs_traced_ns_per_load", per_load_ns_traced, 0, 0});
  // Deterministic rows: pure functions of (page seed, session seed).
  report.add({"obs_trace_events", static_cast<double>(events), 0, 0});
  report.add({"obs_trace_objects", static_cast<double>(objects), 0, 0});
  report.add({"obs_chrome_bytes", static_cast<double>(chrome.size()), 0, 0});
  report.add({"obs_har_bytes", static_cast<double>(har.size()), 0, 0});
  report.add({"obs_csv_bytes", static_cast<double>(csv.size()), 0, 0});
  report.add({"obs_metrics_count", static_cast<double>(metrics.size()), 0, 0});
  report.add({"obs_metrics_json_bytes",
              static_cast<double>(metrics_json.size()), 0, 0});
  report.add({"replay_heap_allocs_per_load", heap_allocs_per_load, 0, 0});
  report.add({"replay_heap_kbytes_per_load", heap_kbytes_per_load, 0, 0});
  report.add({"replay_loop_scheduled_per_load", per_load(loop_work.scheduled),
              0, 0});
  report.add({"replay_loop_dispatched_per_load",
              per_load(loop_work.dispatched), 0, 0});
  report.add({"replay_loop_cancelled_per_load", per_load(loop_work.cancelled),
              0, 0});
  report.add({"replay_loop_rearmed_per_load", per_load(loop_work.rearmed), 0,
              0});
  report.add({"replay_loop_rekeyed_per_load", per_load(loop_work.rekeyed), 0,
              0});
  report.add({"replay_loop_tombstones_per_load",
              per_load(loop_work.tombstones), 0, 0});
  report.add({"replay_loop_heap_pushes_per_load",
              per_load(loop_work.heap_pushes), 0, 0});
  report.add({"bulk_probe_heap_allocs", static_cast<double>(bulk_allocs), 0,
              0});
  report.add({"bulk_probe_heap_kbytes", bulk_kbytes, 0, 0});
  report.add({"bulk_probe_bottleneck_arrivals",
              static_cast<double>(bulk.bottleneck.arrivals), 0, 0});
  const char* out = std::getenv("MAHI_OBS_JSON");
  report.write(out != nullptr ? out : "BENCH_obs.json");
  return 0;
}
