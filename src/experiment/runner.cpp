#include "experiment/runner.hpp"

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/sessions.hpp"
#include "corpus/alexa.hpp"
#include "experiment/checkpoint.hpp"
#include "fleet/session_mux.hpp"
#include "journal/journal.hpp"
#include "net/bulk_probe.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace mahimahi::experiment {
namespace {

/// Work unit: one page load of one cell, or one transport probe.
struct Task {
  std::size_t cell_pos{0};  // position in the sharded cell list
  int load_index{0};
  bool is_probe{false};
};

core::SessionConfig cell_session_config(const Cell& cell,
                                        const MaterializedCell& materialized,
                                        Microseconds deadline) {
  core::SessionConfig config;
  config.seed = cell.load_seed;
  config.shells = materialized.shells;
  if (cell.shell.host == "machine1") {
    config.host = core::HostProfile::machine1();
  } else if (cell.shell.host == "machine2") {
    config.host = core::HostProfile::machine2();
  }
  config.browser.protocol = cell.protocol;
  if (cell.shell.requests > 0) {
    config.browser.max_concurrent_requests = cell.shell.requests;
  }
  if (cell.shell.conns > 0) {
    config.browser.max_connections_per_origin = cell.shell.conns;
  }
  config.deadline = deadline;
  config.controllers = cell.cc.fleet;
  config.fault = cell.fault.fault;
  return config;
}

replay::OriginServerSet::Options cell_origin_options(const Cell& cell) {
  replay::OriginServerSet::Options options;
  options.multiplexed = cell.protocol == web::AppProtocol::kMultiplexed;
  options.single_server = cell.shell.origins == Origins::kSingle;
  if (cell.shell.pool_initial > 0) {
    options.worker_pool.initial_workers = cell.shell.pool_initial;
    options.worker_pool.spawn_interval = cell.shell.pool_spawn;
  }
  if (cell.shell.think.has_value()) {
    options.processing_delay = *cell.shell.think;
  }
  return options;
}

net::MultiBulkFlowSpec cell_probe_spec(const Cell& cell,
                                       const MaterializedCell& materialized,
                                       Microseconds duration) {
  net::MultiBulkFlowSpec probe;
  probe.controllers = cell.cc.fleet;
  probe.duration = duration;
  probe.queue = cell.queue.queue;
  probe.one_way_delay = materialized.total_one_way_delay;
  probe.loss = materialized.loss;
  // The probe's random streams (loss coin, AQM drop coin) must differ per
  // cell but never per thread.
  probe.loss_seed = cell.cell_seed ^ 0x1055;
  probe.queue.pie_seed = cell.cell_seed ^ 0xC37;
  if (materialized.uplink != nullptr) {
    probe.uplink_trace = materialized.uplink;
    probe.downlink_trace = materialized.downlink;
  } else {
    // No link layer: an effectively-unshaped bottleneck so the probe
    // still reports shares (the queue axis is inert without a link).
    probe.link_mbps = 1000.0;
  }
  return probe;
}

/// Backoff before retry `attempt` (1-based: the attempt that just failed):
/// capped exponential with jitter seeded from (cell seed, load, attempt) —
/// the delays are deterministic even though they burn wall-clock, so retry
/// timing never becomes a hidden source of scheduling nondeterminism.
std::chrono::milliseconds retry_backoff(const Cell& cell, const Task& task,
                                        std::uint32_t attempt) {
  const util::Rng root{cell.cell_seed};
  const std::uint64_t bits =
      root.fork("task-retry-" + std::to_string(task.load_index) + "-" +
                (task.is_probe ? "p" : "l") + "-" + std::to_string(attempt))
          .next();
  // uniform [0.5, 1.5) from the top 53 bits
  const double jitter =
      0.5 + static_cast<double>(bits >> 11) / 9007199254740992.0;
  const std::uint32_t shift = attempt > 6 ? 6 : attempt - 1;
  const double base_ms = 100.0 * static_cast<double>(1U << shift);
  return std::chrono::milliseconds{
      static_cast<long long>(base_ms * jitter)};
}

/// The journal side-channel of one run: the open writer plus the results
/// replayed from a previous attempt, keyed by global task identity.
struct JournalState {
  std::unique_ptr<journal::Writer> writer;
  std::map<TaskKey, TaskResult> replayed;
};

JournalState open_journal(const ExperimentSpec& spec,
                          const std::vector<Cell>& matrix, int loads,
                          bool tracing, bool metrics,
                          const RunOptions& options) {
  JournalState state;
  if (options.journal_dir.empty()) {
    if (options.resume) {
      throw std::invalid_argument{
          "experiment: --resume requires a journal directory"};
    }
    return state;
  }
  std::filesystem::create_directories(options.journal_dir);
  const journal::Manifest manifest =
      build_manifest(spec, matrix, loads, options.transport_probes, tracing,
                     metrics, options.spec_fingerprint);
  std::uint64_t truncate_to = 0;
  if (options.resume) {
    const journal::Manifest existing =
        journal::read_manifest(options.journal_dir);
    const std::string mismatch = manifest.first_mismatch(existing);
    if (!mismatch.empty()) {
      throw std::invalid_argument{
          "journal: cannot resume from " + options.journal_dir +
          ": manifest field '" + mismatch + "' does not match this run "
          "(journal has '" + existing.get(mismatch) + "', this run is '" +
          manifest.get(mismatch) +
          "') — the journal belongs to a different spec, options or build; "
          "rerun without --resume to start over"};
    }
    journal::ReadResult read = journal::read_journal_file(
        journal::Writer::journal_path(options.journal_dir));
    if (read.torn_tail) {
      MAHI_WARN("journal") << "discarding torn tail after "
                           << read.records.size() << " valid record(s) in "
                           << options.journal_dir
                           << " (the record being written at the crash)";
    }
    for (const std::string& record : read.records) {
      auto decoded = decode_task_record(record);
      if (!decoded.has_value()) {
        MAHI_WARN("journal") << "skipping one undecodable record in "
                             << options.journal_dir;
        continue;
      }
      state.replayed[decoded->first] = std::move(decoded->second);
    }
    truncate_to = read.valid_bytes;
  } else {
    // Fresh run: pin this run's identity, then start the log over (a
    // leftover journal.bin from an earlier run is truncated away).
    journal::write_manifest(options.journal_dir, manifest);
  }
  state.writer =
      std::make_unique<journal::Writer>(options.journal_dir, truncate_to);
  return state;
}

}  // namespace

RecordedSite record_site(std::uint64_t experiment_seed, const SiteAxis& axis,
                         int site_index) {
  const util::Rng root{experiment_seed};
  corpus::SiteSpec site_spec = axis.site;
  std::string stream = "record-" + axis.label;
  if (axis.corpus_size > 0) {
    // Site k's spec is the k-th draw of the corpus stream, whatever the
    // number of sites a run records.
    util::Rng spec_rng = root.fork("corpus-specs-" + axis.label);
    const std::vector<int> servers =
        corpus::alexa_server_counts(spec_rng, axis.corpus_size);
    for (int k = 0; k <= site_index; ++k) {
      site_spec = corpus::alexa_site_spec(
          k, servers[static_cast<std::size_t>(k)], spec_rng);
    }
    stream += "-" + std::to_string(site_index);
  }
  RecordedSite entry{corpus::generate_site(site_spec), record::RecordStore{}};
  core::SessionConfig config;
  config.seed = root.fork(stream).next();
  core::RecordSession session{entry.site, corpus::LiveWebConfig{}, config};
  entry.store = session.record();
  return entry;
}

Report run_experiment(const ExperimentSpec& spec, const RunOptions& options) {
  if (options.shard_count < 1 || options.shard_index < 0 ||
      options.shard_index >= options.shard_count) {
    throw std::invalid_argument{
        "experiment shard must satisfy 0 <= index < count"};
  }
  core::ParallelRunner& pool =
      options.runner != nullptr ? *options.runner
                                : core::ParallelRunner::shared();
  const int loads = options.loads_override > 0 ? options.loads_override
                                               : spec.loads_per_cell;

  const std::vector<Cell> matrix = expand_matrix(spec);
  for (const Claim& claim : spec.claims) {
    check_claim(claim, matrix);  // a bad selector fails before any work
  }
  std::vector<Cell> cells;
  for (const Cell& cell : matrix) {
    if (cell.index % options.shard_count == options.shard_index) {
      cells.push_back(cell);
    }
  }

  // Metrics derive from per-cell trace buffers, so asking for metrics
  // turns tracing on internally even when no artifacts will be exported.
  const bool tracing = !options.trace_dir.empty() || options.metrics;
  JournalState journal_state =
      open_journal(spec, matrix, loads, tracing, options.metrics, options);

  // --- record each referenced site once (they are shared, read-only) ----
  // Distinct site labels in first-appearance order, each taking one slot
  // of `recorded` — a corpus takes one per load, since load k replays its
  // site k. Recording seeds fork from (spec.seed, label[, k]), so the
  // corpus is independent of the axis order and of which shard runs.
  std::vector<std::pair<const SiteAxis*, int>> record_jobs;
  std::map<std::string, std::size_t> site_pos;  // label -> first slot
  for (const Cell& cell : cells) {
    if (!site_pos.emplace(cell.site.label, record_jobs.size()).second) {
      continue;
    }
    if (cell.site.corpus_size == 0) {
      record_jobs.emplace_back(&cell.site, 0);
      continue;
    }
    if (loads > cell.site.corpus_size) {
      throw std::invalid_argument{
          "experiment: " + std::to_string(loads) + " loads exceed corpus '" +
          cell.site.label + "' (load k replays site k)"};
    }
    for (int k = 0; k < loads; ++k) {
      record_jobs.emplace_back(&cell.site, k);
    }
  }
  const std::vector<RecordedSite> recorded = [&] {
    MAHI_PROFILE("record");
    return pool.map(static_cast<int>(record_jobs.size()), [&](int i) {
      const auto& [axis, site_index] =
          record_jobs[static_cast<std::size_t>(i)];
      return record_site(spec.seed, *axis, site_index);
    });
  }();

  // Materialize each cell once (traces are immutable and shared): the
  // fan-out below reads these concurrently but never mutates them.
  std::vector<MaterializedCell> materialized;
  materialized.reserve(cells.size());
  for (const Cell& cell : cells) {
    materialized.push_back(materialize_cell(cell));
  }

  // --- flatten the work: every load and probe is one independent task ---
  // Each cell's tasks are contiguous — its loads in load order, then its
  // probe — so a cell's load-task slots start at pos * tasks_per_cell.
  const std::size_t tasks_per_cell =
      static_cast<std::size_t>(loads) + (options.transport_probes ? 1 : 0);
  std::vector<Task> tasks;
  tasks.reserve(cells.size() * tasks_per_cell);
  for (std::size_t pos = 0; pos < cells.size(); ++pos) {
    for (int load = 0; load < loads; ++load) {
      tasks.push_back(Task{pos, load, false});
    }
    if (options.transport_probes) {
      tasks.push_back(Task{pos, 0, true});
    }
  }

  // The report rows exist before any task runs, so a finalized cell can
  // drop its metrics block straight into its own row.
  Report report;
  report.name = spec.name;
  report.seed = spec.seed;
  report.loads_per_cell = loads;
  report.total_cells = static_cast<int>(matrix.size());
  report.shard_index = options.shard_index;
  report.shard_count = options.shard_count;
  report.fault_axis = !spec.faults.empty();
  report.cells.resize(cells.size());
  for (std::size_t pos = 0; pos < cells.size(); ++pos) {
    const Cell& cell = cells[pos];
    CellResult& row = report.cells[pos];
    row.index = cell.index;
    row.site = cell.site.label;
    row.protocol =
        cell.protocol == web::AppProtocol::kMultiplexed ? "mux" : "http11";
    row.shell = cell.shell.label;
    row.queue = cell.queue.label;
    row.cc = cell.cc.label;
    row.fleet = cell.fleet.label;
    row.fleet_sessions = cell.fleet.sessions;
    row.fault = cell.fault.label;
    row.loads_expected = loads;
  }
  if (!options.trace_dir.empty()) {
    std::filesystem::create_directories(options.trace_dir);
  }

  // Result slots in task order, filled by the workers.
  std::vector<TaskResult> outcomes(tasks.size());

  // Finalize one cell: merge its per-load traces by load index (the same
  // ordering contract as the report rows), derive its metrics block and
  // write its trace CSV, then free the buffers. It runs on the worker
  // that completes the cell's last task, so finalization overlaps the
  // simulation of later cells instead of queueing behind the whole
  // matrix, and only unfinished cells hold trace buffers. The bytes
  // depend only on the cell's own slots — never on which worker
  // finalizes it or when — so they are identical at any thread count,
  // across shard splits and across --resume.
  const auto finalize_cell = [&](std::size_t pos) {
    if (!tracing) {
      return;
    }
    std::vector<obs::LoadTrace> traces;
    traces.reserve(static_cast<std::size_t>(loads));
    for (int load = 0; load < loads; ++load) {
      TaskResult& slot =
          outcomes[pos * tasks_per_cell + static_cast<std::size_t>(load)];
      traces.push_back(obs::LoadTrace{load, std::move(slot.trace)});
    }
    if (options.metrics) {
      MAHI_PROFILE("metrics");
      report.cells[pos].metrics_json =
          obs::derive_cell_metrics(traces).to_json_inline();
    }
    if (!options.trace_dir.empty()) {
      MAHI_PROFILE("export");
      const Cell& cell = cells[pos];
      const obs::TraceMeta meta{spec.name, cell.label(), cell.index,
                                cell.cell_seed};
      util::atomic_write_file(
          options.trace_dir + "/cell" + std::to_string(cell.index) + ".csv",
          obs::to_csv(meta, traces));
    }
  };

  const int max_attempts = 1 + spec.task_retries;
  const auto run_task = [&](const Task& task) -> TaskResult {
    const Cell& cell = cells[task.cell_pos];
    const TaskKey key{cell.index, task.is_probe ? 0 : task.load_index,
                      task.is_probe};
    // Resume: a journaled result satisfies the task without running
    // anything — it moves into the same global-index slot the live run
    // would have filled (each key is looked up exactly once), so the merge
    // cannot tell the difference.
    const auto it = journal_state.replayed.find(key);
    if (it != journal_state.replayed.end()) {
      return std::move(it->second);
    }
    TaskResult outcome;
    // Graceful cancellation: stop admitting work. Tasks already past this
    // check drain normally; this one reports itself skipped and the merge
    // marks the report interrupted.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      outcome.skipped = 1;
      return outcome;
    }
    const MaterializedCell& cell_net = materialized[task.cell_pos];
    for (std::uint32_t attempt = 1;; ++attempt) {
      outcome = TaskResult{};
      outcome.attempts = attempt;
      // One Tracer per attempt (the obs determinism contract): a load task
      // is one deterministic simulation, so its buffer depends only on
      // (cell seed, load index) — never on threads, sharding or which
      // attempt finally succeeded.
      obs::Tracer tracer;
      obs::Tracer* task_tracer =
          tracing && !task.is_probe ? &tracer : nullptr;
      try {
        if (options.transient_fault &&
            options.transient_fault(cell.index, task.load_index,
                                    task.is_probe, attempt)) {
          throw std::runtime_error{
              "transient: injected worker fault (test hook)"};
        }
        if (task.is_probe) {
          MAHI_PROFILE("probe");
          outcome.probe = net::run_multi_bulk_flow(
              cell_probe_spec(cell, cell_net, spec.probe_duration));
          break;
        }
        MAHI_PROFILE("replay");
        const RecordedSite& entry =
            recorded[site_pos.at(cell.site.label) +
                     (cell.site.corpus_size > 0 ? task.load_index : 0)];
        core::SessionConfig session_config =
            cell_session_config(cell, cell_net, spec.cell_deadline);
        if (cell_net.live_delay_shell >= 0) {
          session_config.shells[static_cast<std::size_t>(
              cell_net.live_delay_shell)] =
              core::DelayShellSpec{live_one_way_delay(cell, task.load_index)};
        }
        session_config.tracer = task_tracer;
        std::vector<fleet::SessionOutcome> sessions;
        if (cell.fleet.sessions > 1) {
          // Offered-load cell: one load = one shared-world fleet, every
          // user contending in the same namespace. The whole fleet is one
          // indivisible simulation under one task, seeded from (load_seed,
          // load index) — deterministic at any thread count, like every
          // other task. The watchdog deadline covers the whole mux, and
          // the whole mux traces into this task's one buffer, sessions
          // told apart by their fleet index (shared infra = -1).
          fleet::MuxConfig mux_config;
          mux_config.fleet_seed =
              util::Rng{cell.load_seed}
                  .fork("fleet-load-" + std::to_string(task.load_index))
                  .next();
          mux_config.stagger = cell.fleet.stagger;
          mux_config.session = std::move(session_config);
          mux_config.origin = cell_origin_options(cell);
          fleet::SessionMux mux{entry.store, entry.site.primary_url(),
                                mux_config};
          for (int s = 0; s < cell.fleet.sessions; ++s) {
            mux.add_session(s);
          }
          sessions = mux.run();
        } else if (cell.shell.origins == Origins::kLive) {
          // The live web itself: the same site, no recording in the path.
          const core::LiveWebSession live{entry.site, corpus::LiveWebConfig{},
                                          session_config};
          sessions.push_back(fleet::session_outcome(
              live.load_outcome(task.load_index).result));
        } else {
          const core::ReplaySession session{entry.store, session_config,
                                            cell_origin_options(cell)};
          sessions.push_back(fleet::session_outcome(
              session.load_once(entry.site.primary_url(), task.load_index)));
        }
        outcome.trace = tracer.take();
        for (const fleet::SessionOutcome& session : sessions) {
          outcome.plts.push_back(session.plt_ms);
          outcome.oks.push_back(session.success);
          outcome.degraded.push_back(session.degraded_plt_ms);
          outcome.failed_objects.push_back(session.objects_failed);
          outcome.retries.push_back(session.retries);
          outcome.timeouts.push_back(session.timeouts);
        }
        break;
      } catch (const core::WatchdogError& e) {
        // A watchdog trip is deterministic — the simulation ran out of
        // virtual time, and rerunning would reproduce it bit-for-bit — so
        // it is final, never retried. The partial trace (everything up to
        // the deadline, ending in the kWatchdogExpired event) is kept: it
        // is the diagnosis.
        outcome.error = e.what();
        outcome.trace = tracer.take();
        break;
      } catch (const std::exception& e) {
        // Any other failure becomes a failed row. With task-retries
        // configured it is first retried with identical inputs, so a
        // transient worker hiccup heals into the exact bytes an untroubled
        // run produces; a deterministic failure just fails the same way
        // again and the last error stands.
        outcome.error = e.what();
        if (attempt >= static_cast<std::uint32_t>(max_attempts)) {
          break;
        }
        std::this_thread::sleep_for(retry_backoff(cell, task, attempt));
      }
    }
    // Durability point: the record is fsync'd before the task counts as
    // done — a SIGKILL after this line cannot lose the result.
    if (journal_state.writer != nullptr) {
      MAHI_PROFILE("journal");
      journal_state.writer->append(encode_task_record(key, outcome));
    }
    return outcome;
  };

  // Per-cell countdown of unfinished tasks: whichever worker takes it to
  // zero finalizes the cell. The acq_rel decrement orders every sibling's
  // slot write before the finalizer's reads. Progress is observation only
  // — counts, never results — and a cell counts as done once finalized.
  const int tasks_total = static_cast<int>(tasks.size());
  const int cells_total = static_cast<int>(cells.size());
  std::atomic<int> tasks_done{0};
  std::atomic<int> cells_done{0};
  std::vector<std::atomic<int>> cell_remaining(cells.size());
  for (std::atomic<int>& remaining : cell_remaining) {
    remaining.store(static_cast<int>(tasks_per_cell),
                    std::memory_order_relaxed);
  }
  pool.run_indexed(tasks_total, [&](int task_index) {
    const Task& task = tasks[static_cast<std::size_t>(task_index)];
    outcomes[static_cast<std::size_t>(task_index)] = run_task(task);
    if (cell_remaining[task.cell_pos].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      finalize_cell(task.cell_pos);
      cells_done.fetch_add(1, std::memory_order_relaxed);
    }
    if (options.on_progress) {
      options.on_progress(
          tasks_done.fetch_add(1, std::memory_order_relaxed) + 1, tasks_total,
          cells_done.load(std::memory_order_relaxed), cells_total);
    }
  });

  // --- fold task results into the rows, in task order (failure logs
  // after the run, so even diagnostics are deterministic) -----------------
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    const TaskResult& outcome = outcomes[i];
    CellResult& row = report.cells[task.cell_pos];
    if (outcome.skipped != 0) {
      // Cancelled before it started: the report is partial. The journal
      // (when active) already holds every completed sibling, so --resume
      // picks up exactly here.
      report.interrupted = true;
      continue;
    }
    if (!task.is_probe) {
      ++row.loads_done;
    }
    if (!outcome.error.empty()) {
      // A torn task is one failed load (or a skipped probe) — recorded in
      // task order, which is load order, so error lists are deterministic.
      if (!task.is_probe) {
        ++row.failed_loads;
      }
      row.load_errors.push_back(
          (task.is_probe ? std::string{"probe: "}
                         : "load " + std::to_string(task.load_index) + ": ") +
          outcome.error);
      MAHI_WARN("experiment")
          << "cell " << row.index << " (" << cells[task.cell_pos].label()
          << ") task failed: " << outcome.error;
      continue;
    }
    if (task.is_probe) {
      row.probe_ran = true;
      row.queue_delay_p95_ms = outcome.probe.bottleneck.delay_p95_ms;
      row.jain_index = outcome.probe.jain_index;
      for (const auto& flow : outcome.probe.flows) {
        row.flows.push_back(FlowResult{flow.controller, flow.bytes_delivered,
                                       flow.throughput_bps, flow.share,
                                       flow.retransmissions});
      }
      continue;
    }
    for (std::size_t s = 0; s < outcome.plts.size(); ++s) {
      row.plt_ms.add(outcome.plts[s]);
      row.degraded_plt_ms.add(outcome.degraded[s]);
      row.objects_failed += outcome.failed_objects[s];
      row.retries += outcome.retries[s];
      row.timeouts += outcome.timeouts[s];
      if (outcome.oks[s] == 0) {
        ++row.failed_loads;
        MAHI_WARN("experiment")
            << "cell " << row.index << " (" << cells[task.cell_pos].label()
            << ") load " << task.load_index << " session " << s
            << " had failures";
      }
    }
  }

  // --- paper claims: each over the rows its selectors name; a claim
  // with a cell outside this shard is reported skipped ------------------
  const auto row = [&](const std::string& selector) -> const CellResult* {
    if (selector.empty()) {
      return nullptr;
    }
    const int index = select_cell(matrix, selector).index;
    for (const CellResult& cell : report.cells) {
      if (cell.index == index) {
        return &cell;
      }
    }
    return nullptr;
  };
  for (const Claim& claim : spec.claims) {
    report.claims.push_back(
        evaluate_claim(claim, row(claim.cell), row(claim.vs)));
  }

  // --- runner-lifecycle observability: one events.csv in the journal dir,
  // written post-merge in task (= load) order so its bytes are as
  // deterministic as the report's. These events stay OUT of the per-cell
  // trace artifacts on purpose: a resumed run replays instead of loading,
  // and injecting replay markers into cell traces would break the
  // byte-identity guarantee. (Watchdog events are different — they happen
  // inside the simulation and land in the cell's own trace.)
  if (journal_state.writer != nullptr) {
    obs::TraceBuffer events;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& task = tasks[i];
      const TaskResult& outcome = outcomes[i];
      const Cell& cell = cells[task.cell_pos];
      const TaskKey key{cell.index, task.is_probe ? 0 : task.load_index,
                        task.is_probe};
      const std::uint64_t cell_index =
          static_cast<std::uint64_t>(cell.index);
      const obs::EventKind kind =
          outcome.skipped != 0  ? obs::EventKind::kTaskCancelled
          : outcome.replayed != 0 ? obs::EventKind::kJournalReplay
                                  : obs::EventKind::kJournalAppend;
      events.events.push_back(obs::TraceEvent{
          0, obs::Layer::kRunner, kind, -1, 0, cell_index, 0, key.label()});
      if (outcome.attempts > 1) {
        events.events.push_back(obs::TraceEvent{
            0, obs::Layer::kRunner, obs::EventKind::kTaskRetry, -1, 0,
            outcome.attempts, 0, key.label()});
      }
      if (outcome.error.rfind("watchdog:", 0) == 0) {
        events.events.push_back(obs::TraceEvent{
            spec.cell_deadline, obs::Layer::kRunner,
            obs::EventKind::kWatchdogExpired, -1, 0, cell_index,
            to_ms(spec.cell_deadline), key.label()});
      }
    }
    const obs::TraceMeta meta{spec.name, "runner", -1, spec.seed};
    std::vector<obs::LoadTrace> runner_trace;
    runner_trace.push_back(obs::LoadTrace{0, std::move(events)});
    util::atomic_write_file(options.journal_dir + "/events.csv",
                            obs::to_csv(meta, runner_trace));
  }

  return report;
}

}  // namespace mahimahi::experiment
