#pragma once

// The benchmark's single source of truth: its workloads and every metric
// it reports. `mmbench --list` prints these tables and
// `mmbench --benchmark-json` renders BENCHMARK.json from them; run.sh
// refuses to run when the checked-in BENCHMARK.json differs.

#include <array>
#include <string_view>

namespace mmbench {

inline constexpr int kRunSeconds = 20;

struct Workload {
  std::string_view name;
  std::string_view why;
  /// What one closed-loop task is, and what `throughput_per_s` counts.
  std::string_view task;
  std::string_view work_unit;
};

inline constexpr std::array kWorkloads{
    Workload{"replay-alexa500",
             "cold replay of a 500-site Alexa-calibrated corpus under cable, "
             "lte and bare shells: the paper's core use, working set far "
             "larger than any cache",
             "one cold ReplaySession::load_once page load", "page loads"},
    Workload{"bulk-transport",
             "6-flow mixed-CC bulk probes over LTE and 48 Mbit/s bottlenecks "
             "with droptail and PIE: per-packet net cost with no web, replay "
             "or obs work",
             "one sweep of 4 run_multi_bulk_flow probes (2 links x 2 queues)",
             "bottleneck packets"},
    Workload{"crowd-shared",
             "32 users contending for one shared-world replay of a "
             "nytimes-like page per SessionMux: one large event loop, one "
             "world build per mux",
             "one shared-world SessionMux of 32 users", "emulated users"},
    Workload{"observed-matrix",
             "run_experiment on a 16-cell matrix with metrics, trace export "
             "and journal on: the full observability and crash-safety write "
             "path",
             "one run_experiment round (16 cells x 2 loads + 16 probes)",
             "page loads"},
};

enum class Better { kLower, kHigher };

enum class Kind {
  /// Measured untraced (--trace 0); a change may worsen it by `bound`.
  kEndToEnd,
  /// Per-layer timing or share (--trace 1): varies run to run.
  kLayer,
  /// Per-layer count or simulated statistic (--trace 1) over the fixed
  /// task prefix: repeats exactly for a given seed and build.
  kExact,
};

struct Metric {
  std::string_view name;
  std::string_view unit;
  Better better;
  Kind kind;
  double bound;  // end-to-end only: allowed worsening, share of the median
  std::string_view layer;
  std::string_view workloads;  // where the metric carries signal
  std::string_view moves;      // what it measures / which e2e metric it moves
};

inline constexpr Better kLo = Better::kLower;
inline constexpr Better kHi = Better::kHigher;
inline constexpr Kind kE2e = Kind::kEndToEnd;
inline constexpr Kind kLayer = Kind::kLayer;
inline constexpr Kind kExact = Kind::kExact;

inline constexpr std::array kMetrics{
    // --- end to end (untraced) -------------------------------------------
    Metric{"setup_s", "s", kLo, kE2e, 0.25, "all", "all",
           "median of 3 set-ups: derive inputs from the seed (record the "
           "corpus) plus one warm-up task per worker"},
    Metric{"throughput_per_s", "1/s", kHi, kE2e, 0.25, "all", "all",
           "work units per host second: page loads, bottleneck packets, "
           "emulated users, page loads"},
    Metric{"task_ms_p50", "ms", kLo, kE2e, 0.25, "all", "all",
           "median host ms per closed-loop task"},
    Metric{"peak_rss_mb", "MB", kLo, kE2e, 0.15, "all", "all",
           "getrusage max RSS of the run, set-up included"},

    // --- per layer: microbenchmarks on the workload's inputs ------------
    Metric{"net.loop_ns_per_event", "ns", kLo, kLayer, 0, "net", "all",
           "EventLoop schedule+run; moves task_ms_p50 everywhere, most on "
           "bulk-transport"},
    Metric{"net.queue_ns_per_pkt", "ns", kLo, kLayer, 0, "net", "all",
           "make_queue enqueue+dequeue with the workload's disciplines; "
           "moves throughput_per_s @ bulk-transport"},
    Metric{"obs.tracer_ns_per_event", "ns", kLo, kLayer, 0, "obs", "all",
           "Tracer::event + take; moves throughput_per_s @ "
           "observed-matrix, none @ replay-alexa500"},
    Metric{"journal.append_us_p50", "us", kLo, kLayer, 0, "journal", "all",
           "encode_task_record + fsync'd Writer::append on the checkout "
           "disk; moves observed-matrix"},

    // --- per layer: times of the traced tasks -----------------------------
    Metric{"net.ns_per_pkt", "ns", kLo, kLayer, 0, "net", "all",
           "host ns inside the simulation per link-queue packet; moves "
           "throughput_per_s everywhere"},
    Metric{"obs.traced_task_ms_p50", "ms", kLo, kLayer, 0, "obs", "all",
           "median task ms with tracing on (bulk probes take no tracer)"},

    // --- per layer: shares of task time (0 where the layer is bypassed) --
    Metric{"core.build_frac", "ratio", kLo, kLayer, 0, "core", "replay,crowd",
           "ReplayWorld / SessionMux construction; moves throughput_per_s @ "
           "replay-alexa500, little @ crowd-shared"},
    Metric{"core.teardown_frac", "ratio", kLo, kLayer, 0, "core",
           "replay,crowd", "world destruction; moves throughput_per_s @ "
           "replay-alexa500"},
    Metric{"net.run_frac", "ratio", kHi, kLayer, 0, "net", "all",
           "EventLoop::run / mux.run / probe / pooled replay+probe share of "
           "task time"},
    Metric{"replay.matcher_frac", "ratio", kLo, kLayer, 0, "replay",
           "replay,crowd", "Matcher construction per world, as a share of "
           "task time; moves task_ms_p50 @ replay-alexa500"},
    Metric{"obs.traced_overhead_frac", "ratio", kLo, kLayer, 0, "obs",
           "replay,crowd,observed",
           "traced over untraced task time minus 1 (observed: full options "
           "over none); moves throughput_per_s @ observed-matrix"},
    Metric{"experiment.record_frac", "ratio", kLo, kLayer, 0, "experiment",
           "observed", "site recording share of round wall time"},
    Metric{"experiment.tail_frac", "ratio", kLo, kLayer, 0, "experiment",
           "observed", "last on_progress tick to return, share of round "
           "wall time; moves task_ms_p50 @ observed-matrix"},
    Metric{"obs.metrics_frac", "ratio", kLo, kLayer, 0, "obs", "observed",
           "derive_cell_metrics share of round wall time"},
    Metric{"obs.export_frac", "ratio", kLo, kLayer, 0, "obs", "observed",
           "Chrome/HAR/CSV export share of round wall time"},
    Metric{"journal.write_frac", "ratio", kLo, kLayer, 0, "journal",
           "observed", "journal appends' share of pooled task time"},
    Metric{"record.setup_frac", "ratio", kLo, kLayer, 0, "record",
           "replay,crowd", "generate + record share of set-up time; moves "
           "setup_s"},

    // --- per layer: counts and simulated statistics (exact) --------------
    Metric{"link.pkts_per_task", "count", kLo, kExact, 0, "net", "all",
           "link-queue packets per task"},
    Metric{"link.drops_per_task", "count", kLo, kExact, 0, "net", "all",
           "link-queue drops per task"},
    Metric{"link.queue_hw_pkts", "count", kLo, kExact, 0, "net", "all",
           "deepest link queue seen"},
    Metric{"tcp.conns_per_task", "count", kLo, kExact, 0, "net", "all",
           "TCP connections opened per task"},
    Metric{"tcp.retransmits_per_task", "count", kLo, kExact, 0, "net", "all",
           "TCP retransmissions per task"},
    Metric{"tcp.rtos_per_task", "count", kLo, kExact, 0, "net",
           "replay,crowd,observed", "TCP retransmission timeouts per task"},
    Metric{"dns.queries_per_task", "count", kLo, kExact, 0, "net",
           "replay,crowd,observed", "DNS queries per task"},
    Metric{"web.objects_per_task", "count", kHi, kExact, 0, "web",
           "replay,crowd,observed", "objects loaded per task"},
    Metric{"web.kbytes_per_task", "kB", kHi, kExact, 0, "web",
           "replay,crowd,observed", "kB downloaded per task"},
    Metric{"web.retries_per_task", "count", kLo, kExact, 0, "web",
           "observed", "browser resilience retries per task"},
    Metric{"fault.injections_per_task", "count", kLo, kExact, 0, "fault",
           "observed", "injected faults per task"},
    Metric{"fault.degraded_loads_per_task", "count", kLo, kExact, 0, "fault",
           "observed", "loads that ended without every object per task"},
    Metric{"obs.events_per_task", "count", kLo, kExact, 0, "obs",
           "replay,crowd,observed", "trace events per task"},
    Metric{"obs.artifact_kb_per_task", "kB", kLo, kExact, 0, "obs",
           "replay,crowd,observed",
           "Chrome + HAR + CSV export bytes per task"},
    Metric{"journal.kbytes_per_task", "kB", kLo, kExact, 0, "journal",
           "observed", "journal.bin bytes per round"},
    Metric{"fleet.peak_live_sessions", "count", kLo, kExact, 0, "fleet",
           "crowd", "peak concurrent sessions in one mux"},
    Metric{"record.exchanges_per_site", "count", kLo, kExact, 0, "record",
           "replay,crowd", "recorded exchanges per site"},
    Metric{"record.response_kb_per_site", "kB", kLo, kExact, 0, "record",
           "replay,crowd", "recorded response bytes per site"},
    Metric{"sim.plt_ms_mean", "sim_ms", kLo, kExact, 0, "sim",
           "replay,crowd,observed",
           "mean simulated page-load time; a perf-only change keeps it"},
    Metric{"sim.jain_mean", "ratio", kHi, kExact, 0, "sim", "bulk,observed",
           "mean Jain index of the probes; a perf-only change keeps it"},
};

}  // namespace mmbench
