#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/spec.hpp"
#include "util/statistics.hpp"

namespace mahimahi::experiment {

/// One flow of a cell's transport probe.
struct FlowResult {
  std::string controller;
  std::uint64_t bytes_delivered{0};
  double throughput_bps{0};
  double share{0};
  std::uint64_t retransmissions{0};
};

/// Everything measured for one cell.
struct CellResult {
  int index{0};  // global (unsharded) matrix index
  std::string site;
  std::string protocol;
  std::string shell;
  std::string queue;
  std::string cc;
  std::string fleet;
  /// Concurrent users per load (the offered-load axis); 1 = classic
  /// single-user cell.
  int fleet_sessions{1};
  /// Fault-axis label ("none" = healthy control).
  std::string fault{"none"};
  /// Page-load times in (load-index, session-index) order — one sample
  /// per load for a single-user cell, fleet_sessions per load otherwise.
  util::Samples plt_ms;
  std::size_t failed_loads{0};
  /// Graceful-degradation PLT per load (== plt_ms for clean loads) and
  /// resilience totals across the cell's loads. Serialized only when the
  /// report's fault axis is on, so healthy reports keep their exact
  /// pre-fault byte layout.
  util::Samples degraded_plt_ms;
  std::uint64_t objects_failed{0};
  std::uint64_t retries{0};
  std::uint64_t timeouts{0};
  /// Worker-task failures (exceptions) per load, in load order — failed
  /// rows instead of a torn-down run.
  std::vector<std::string> load_errors;
  /// Completion accounting for interrupted runs: how many of the cell's
  /// load tasks finished before cancellation stopped admission. Equal when
  /// the cell completed; serialized only in interrupted reports.
  int loads_done{0};
  int loads_expected{0};
  /// Pre-serialized derived-metrics snapshot for this cell (one-line JSON,
  /// obs::MetricsSnapshot::to_json_inline). Filled only when the run asked
  /// for metrics (RunOptions::metrics); empty = the "metrics" key is
  /// absent, keeping non-metrics reports byte-identical to pre-metrics
  /// builds — the same gating idiom as load_errors.
  std::string metrics_json;
  /// Transport probe: one bulk flow per fleet entry over the cell's
  /// bottleneck. probe_ran is false when probes were disabled.
  bool probe_ran{false};
  double queue_delay_p95_ms{0};
  double jain_index{0};
  std::vector<FlowResult> flows;
};

/// One evaluated claim (ExperimentSpec::claims). The value is a
/// percentage for `cv`, `vs` and paired statistics; otherwise it is in
/// the statistic's own unit: milliseconds, Mbit/s (throughput) or a
/// count.
struct ClaimResult {
  enum class Status { kPass, kFail, kUnbounded, kSkipped };
  enum class Unit { kMs, kPercent, kMbps, kCount };
  std::string name;
  std::string text;  // Claim::text()
  Status status{Status::kSkipped};
  double value{0};
  Unit unit{Unit::kMs};

  [[nodiscard]] const char* status_name() const;
};

/// Evaluate `claim` over its cells' rows; a null row (cell outside this
/// shard) skips it. A claim over a cell without PLT samples, a probe
/// statistic over a cell whose probe did not run, a `vs` claim whose base
/// is not positive, or a paired claim over cells whose loads do not line
/// up fails, bounded or not.
ClaimResult evaluate_claim(const Claim& claim, const CellResult* cell,
                           const CellResult* vs);

/// The experiment's result set with deterministic serializations: every
/// number is formatted with fixed precision and cells are emitted in
/// index order, so two runs of the same spec — at any thread count —
/// produce byte-identical JSON and CSV. That byte-identity is the
/// engine's reproducibility check (mm_experiment --selfcheck).
class Report {
 public:
  std::string name;
  std::uint64_t seed{0};
  int loads_per_cell{0};
  int total_cells{0};  // full matrix size (>= cells.size() when sharded)
  int shard_index{0};
  int shard_count{1};
  /// True when the spec declared a fault axis: gates the fault label,
  /// degraded-PLT and resilience fields in every serialization. Off, the
  /// outputs are byte-identical to a report built before the fault axis
  /// existed — the fault-none compatibility contract.
  bool fault_axis{false};
  /// True when a cancellation request (SIGINT/SIGTERM) stopped the run
  /// before every task finished: the report is partial. Gates the
  /// "interrupted" key and per-cell completion counts in to_json, so
  /// complete runs keep their exact byte layout. An interrupted run's
  /// artifacts are overwritten by the --resume that completes it.
  bool interrupted{false};
  std::vector<CellResult> cells;
  /// One entry per spec claim, in spec order. Serialized under "claims"
  /// only when the spec has claims, so claim-free reports keep their
  /// exact byte layout — the same gating idiom as load_errors.
  std::vector<ClaimResult> claims;

  /// Schema "mahimahi-experiment-v1": metadata + one object per cell with
  /// full PLT samples, summary stats and the fairness block.
  [[nodiscard]] std::string to_json() const;

  /// One row per cell: labels, PLT summary stats, queue-delay p95, Jain's
  /// index, and per-flow shares packed "controller:share|..." .
  [[nodiscard]] std::string to_csv() const;

  /// The repo-wide "mahimahi-bench-v1" perf-row schema (BENCH_*.json):
  /// median PLT, queue p95 and Jain rows per cell, diffable across PRs.
  [[nodiscard]] std::string to_bench_json() const;
};

}  // namespace mahimahi::experiment
