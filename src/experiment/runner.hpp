#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "core/parallel_runner.hpp"
#include "corpus/site_generator.hpp"
#include "experiment/matrix.hpp"
#include "experiment/report.hpp"
#include "experiment/spec.hpp"
#include "record/store.hpp"

namespace mahimahi::experiment {

/// Execution knobs — everything here changes *what* runs or *where*, never
/// the measured numbers of a cell that runs.
struct RunOptions {
  /// Thread pool; null = the process-wide ParallelRunner::shared().
  core::ParallelRunner* runner{nullptr};
  /// CI sharding: run only cells with index % shard_count == shard_index.
  /// Cell indices and seeds come from the full matrix, so shard results
  /// are the exact rows the unsharded run would produce.
  int shard_index{0};
  int shard_count{1};
  /// > 0 replaces spec.loads_per_cell (CLI/CI scale cap). Changing it
  /// changes which loads run, not the value of any (cell, load) sample.
  int loads_override{0};
  /// Run the per-cell transport probe (throughput shares, Jain's index,
  /// queue-delay p95). Off = page loads only.
  bool transport_probes{true};
  /// When non-empty: every load task records a full obs trace, and each
  /// cell exports three artifacts into this directory — cell<index>.trace
  /// .json (Chrome trace-event / Perfetto), cell<index>.har (HAR 1.2) and
  /// cell<index>.csv (time series, the `mm_trace` input). Tracing
  /// follows the same determinism contract as the report: one Tracer per
  /// task, buffers merged by load index, so artifact bytes are identical
  /// at any thread or shard count. A cell's artifacts are written by the
  /// worker that finishes its last task, while later cells still run, and
  /// its buffers are freed right after. Off (empty) = zero tracing
  /// overhead.
  std::string trace_dir{};
  /// Derive per-cell metrics (counters / gauges / log-bucketed histograms:
  /// queue residence, cwnd convergence, retransmit bursts, PLT critical
  /// path, fault recovery) and attach each cell's snapshot to the Report
  /// as a "metrics" block. Implies tracing internally — every load task
  /// records a trace buffer even when trace_dir is empty — but artifacts
  /// are only exported when trace_dir is set. Metrics derive from the
  /// merged per-cell traces (load-index order) as each cell finishes, so
  /// they obey the same byte-determinism contract as the report and
  /// survive --resume.
  bool metrics{false};
  /// Progress callback (tasks_done, tasks_total, cells_done, cells_total),
  /// invoked from worker threads after every finished task. A cell counts
  /// as done once its metrics block and trace artifacts are written.
  /// Observation only: it sees completion counts, never results, so it
  /// cannot perturb any artifact. Callers throttle/render (mm_experiment
  /// --progress).
  std::function<void(int, int, int, int)> on_progress{};
  /// When non-empty: crash-safe execution. The directory receives a
  /// MANIFEST pinning the run's identity (spec/matrix/toolchain hashes), a
  /// journal.bin with one fsync'd checksummed record per completed task,
  /// and an events.csv of runner-lifecycle events (`mm_trace dump` input).
  /// A fresh run (resume == false) starts the journal over.
  std::string journal_dir{};
  /// Replay journaled task results into their global-index slots and run
  /// only the missing work. Requires journal_dir; refuses (with the
  /// offending field named) a journal whose manifest does not match this
  /// run. Journal keys are global (cell, load) indices, so a journal
  /// written sharded resumes unsharded and vice versa. The completed
  /// report, CSV, bench-JSON and trace artifacts are byte-identical to an
  /// uninterrupted run at any thread or shard count.
  bool resume{false};
  /// Fingerprint of the spec's source text (mm_experiment hashes the spec
  /// file; "-" = programmatic spec). Pinned in the journal manifest.
  std::string spec_fingerprint{"-"};
  /// Graceful-cancellation token (e.g. flipped by a SIGINT handler): when
  /// it becomes true, tasks that have not started are skipped — in-flight
  /// ones drain normally — and the report comes back partial with
  /// Report::interrupted set and per-cell completion counts. With a
  /// journal, every finished task is already durable, so a later --resume
  /// completes the run.
  const std::atomic<bool>* cancel{nullptr};
  /// Test hook: pre-simulation transient-failure injection. Called per
  /// attempt with (cell index, load index, is_probe, attempt [1-based]);
  /// returning true makes that attempt fail with a typed transient error,
  /// exercising the bounded-retry path without touching any simulation.
  std::function<bool(int, int, bool, std::uint32_t)> transient_fault{};
};

/// One recorded site, shared read-only by every cell that replays it.
struct RecordedSite {
  corpus::GeneratedSite site;
  record::RecordStore store;
};

/// run_experiment's record step for one site: generate it and record it
/// through RecordShell under a seed forked from (experiment seed, label).
/// For a corpus axis (alexa:N), `site_index` k picks corpus site k — the
/// k-th Alexa-calibrated spec of the corpus stream forked from
/// (experiment seed, label) — recorded under (experiment seed, label, k).
/// Deterministic: any caller gets the bytes a run replays.
RecordedSite record_site(std::uint64_t experiment_seed, const SiteAxis& axis,
                         int site_index = 0);

/// Expand the spec's matrix, record each referenced site once (for a
/// corpus, the sites its loads reach), fan every
/// (cell, load) page load and every per-cell transport probe as an
/// independent task across the pool — the worker finishing a cell's last
/// task also derives that cell's metrics and exports its traces — and
/// assemble the Report in cell order.
///
/// Determinism contract: each site records under a seed forked from
/// (spec.seed, site label); each cell's SessionConfig.seed is its
/// Cell::load_seed — forked from (spec.seed, cell index) for a named site,
/// from (spec.seed, corpus label) for a corpus; each load forks (that
/// seed, load index) inside the session layer. Claims are evaluated over
/// the finished rows (Report::claims). A fleet cell (offered-load axis,
/// fleet_sessions > 1) runs each load as one shared-world
/// fleet::SessionMux inside its task — one indivisible simulation, seeded
/// the same way. No task reads shared mutable state, and results merge by
/// index — so the Report (and its JSON/CSV bytes) is identical at any
/// thread count.
Report run_experiment(const ExperimentSpec& spec,
                      const RunOptions& options = {});

}  // namespace mahimahi::experiment
