// mm-experiment: run a declarative scenario-matrix experiment.
//
//   usage: mm_experiment <spec-file> [options]
//     --list              expand the matrix, print one line per cell, exit
//     --shard i/n         run only cells with index % n == i (CI fan-out;
//                         cell indices and seeds come from the full
//                         matrix, so shard rows equal the unsharded rows)
//     --loads N           override the spec's loads-per-cell
//     --no-probes         skip the per-cell transport probes
//     --json PATH         write the experiment report JSON (default
//                         <name>.json)
//     --csv PATH          write the report CSV (default <name>.csv)
//     --bench-json PATH   also write mahimahi-bench-v1 perf rows
//                         (CI uploads BENCH_experiment.json)
//     --trace-dir DIR     record a full observability trace of every load
//                         and write three artifacts per cell into DIR:
//                         cell<i>.trace.json (Chrome trace-event, loadable
//                         in Perfetto), cell<i>.har (HAR 1.2) and
//                         cell<i>.csv (`mm_trace` input). Artifact
//                         bytes are deterministic at any MAHI_THREADS and
//                         across --shard splits.
//     --metrics           derive per-cell metrics (counters, gauges,
//                         log-bucketed histograms: queue residence, cwnd
//                         convergence, retransmit bursts, PLT critical
//                         path, fault recovery) and attach a "metrics"
//                         block to every cell of the report JSON. Off, the
//                         report is byte-identical to a pre-metrics build.
//                         Metric bytes are deterministic at any
//                         MAHI_THREADS and across --shard / --resume.
//     --progress          periodic progress line on stderr (tasks done /
//                         total, cells done / total, elapsed, ETA). Purely
//                         observational: never touches stdout or any
//                         artifact.
//     --profile           wall-clock profiler: aggregate real time per
//                         phase (record/replay/probe/journal/metrics/
//                         export) across the pool, print the table on
//                         stderr and write profile.json. Wall-clock is
//                         nondeterministic by nature — profile.json is
//                         excluded from the determinism-checked artifact
//                         set, and profiling perturbs none of them.
//     --selfcheck         run the whole experiment twice — once on 1
//                         thread, once on several — and fail unless the
//                         serialized reports are byte-identical (the
//                         engine's reproducibility contract)
//     --fail-on-error     exit 1 when any cell recorded a failed load
//                         (fault cells tolerate failures by default —
//                         degradation is data; CI's healthy runs use this
//                         flag to make any failure fatal). Reports and
//                         bench artifacts are written before the verdict;
//                         each failing cell is listed with its typed error.
//     --journal DIR       crash-safe execution: append one fsync'd,
//                         checksummed record per completed task to
//                         DIR/journal.bin, guarded by DIR/MANIFEST (spec,
//                         matrix and toolchain fingerprints). A SIGKILL
//                         loses at most the record being written.
//     --resume            with --journal: replay journaled results and run
//                         only the missing work. Refuses (exit 2, naming
//                         the field) a journal whose manifest does not
//                         match this spec/options/binary. The completed
//                         artifacts are byte-identical to an uninterrupted
//                         run at any thread count or shard split.
//
//   env: MAHI_THREADS sizes the shared pool, as everywhere in the repo.
//
// SIGINT/SIGTERM cancel gracefully: no new tasks start, in-flight ones
// drain (their results still reach the journal), and the report is written
// partial with "interrupted": true and per-cell completion counts.
//
// Claims: a spec's `claim` lines are evaluated over the finished report,
// printed after the cell summary and written under "claims" in the report
// JSON. A failed bounded claim makes the exit status 1 (after every
// artifact is written); a claim whose cells are outside --shard is
// reported skipped.
//
// Exit status: 0 ok, 1 runtime/selfcheck/claim failure, 2 usage/spec
// error, 130 interrupted (resume with --journal ... --resume).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "experiment/runner.hpp"
#include "obs/profile.hpp"
#include "util/atomic_file.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

using namespace mahimahi;
using namespace mahimahi::experiment;

namespace {

/// Graceful-cancellation token, flipped by the signal handler and polled
/// by the runner at every task admission. atomic<bool> stores are
/// async-signal-safe (lock-free on every platform we build for).
std::atomic<bool> g_cancel{false};

void handle_cancel_signal(int) { g_cancel.store(true); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_cancel_signal;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: an experiment mid-simulation polls the token at task
  // boundaries anyway, and a second signal should keep working.
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

/// Fingerprint of the spec file's exact bytes, pinned in the journal
/// manifest: a resume against an edited spec is refused even when the
/// edit would expand to the same matrix hash.
std::string spec_file_fingerprint(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    return "-";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return util::to_hex(util::fnv1a(buffer.str()));
}

std::string cell_label(const CellResult& cell) {
  std::string label = cell.site + "/" + cell.protocol + "/" + cell.shell +
                      "/" + cell.queue + "/" + cell.cc + "/" + cell.fleet;
  if (cell.fault != "none") {
    label += "/" + cell.fault;
  }
  return label;
}

void print_cells(const ExperimentSpec& spec) {
  const std::vector<Cell> cells = expand_matrix(spec);
  std::printf("# %zu cells (site/protocol/shell/queue/cc/fleet[/fault]), "
              "seed %llu, %d loads per cell\n",
              cells.size(), static_cast<unsigned long long>(spec.seed),
              spec.loads_per_cell);
  for (const Cell& cell : cells) {
    std::printf("%4d  %-48s flows=%zu sessions=%d\n", cell.index,
                cell.label().c_str(), cell.cc.fleet.size(),
                cell.fleet.sessions);
  }
}

void print_summary(const Report& report) {
  std::printf("%-4s %-44s %10s %10s %8s %6s\n", "cell", "label",
              "median-plt", "queue-p95", "jain", "loads");
  for (const CellResult& cell : report.cells) {
    const std::string label = cell_label(cell);
    std::printf("%-4d %-44s %8.0fms", cell.index, label.c_str(),
                cell.plt_ms.empty() ? 0.0 : cell.plt_ms.median());
    if (cell.probe_ran) {
      std::printf(" %8.1fms %8.4f", cell.queue_delay_p95_ms, cell.jain_index);
    } else {
      std::printf(" %10s %8s", "-", "-");
    }
    std::printf(" %6zu\n", cell.plt_ms.size());
    if (cell.probe_ran && cell.flows.size() > 1) {
      for (const FlowResult& flow : cell.flows) {
        std::printf("       flow %-8s share=%.4f  %8.0f kbit/s  rexmit=%llu\n",
                    flow.controller.c_str(), flow.share,
                    flow.throughput_bps / 1e3,
                    static_cast<unsigned long long>(flow.retransmissions));
      }
    }
  }
}

/// One line per spec claim: its text, value and verdict.
void print_claims(const Report& report) {
  if (report.claims.empty()) {
    return;
  }
  std::printf("claims:\n");
  for (const ClaimResult& claim : report.claims) {
    std::printf("  %-22s %-46s", claim.name.c_str(), claim.text.c_str());
    if (claim.status == ClaimResult::Status::kSkipped) {
      std::printf(" %11s  skipped (cell outside this shard)\n", "-");
      continue;
    }
    switch (claim.unit) {
      case ClaimResult::Unit::kMs:
        std::printf(" %8.1f ms", claim.value);
        break;
      case ClaimResult::Unit::kPercent:
        std::printf(" %10.2f%%", claim.value);
        break;
      case ClaimResult::Unit::kMbps:
        std::printf(" %4.2f Mbit/s", claim.value);
        break;
      case ClaimResult::Unit::kCount:
        std::printf(" %11.0f", claim.value);
        break;
    }
    std::printf("  %s\n", claim.status_name());
  }
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <spec-file> [--list] [--shard i/n] [--loads N] "
      "[--no-probes] [--json PATH] [--csv PATH] [--bench-json PATH] "
      "[--trace-dir DIR] [--metrics] [--progress] [--profile] "
      "[--journal DIR] [--resume] [--selfcheck] [--fail-on-error]\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
  }
  const std::string spec_path = argv[1];
  bool list = false;
  bool selfcheck = false;
  bool fail_on_error = false;
  bool progress = false;
  bool profile = false;
  RunOptions options;
  std::string json_path;
  std::string csv_path;
  std::string bench_json_path;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--selfcheck") {
      selfcheck = true;
    } else if (arg == "--fail-on-error") {
      fail_on_error = true;
    } else if (arg == "--no-probes") {
      options.transport_probes = false;
    } else if (arg == "--loads") {
      options.loads_override = std::atoi(value().c_str());
      if (options.loads_override < 1) {
        std::fprintf(stderr, "error: --loads must be >= 1\n");
        return 2;
      }
    } else if (arg == "--shard") {
      const std::string shard = value();
      const std::size_t slash = shard.find('/');
      if (slash == std::string::npos) {
        std::fprintf(stderr, "error: --shard expects i/n, e.g. 0/4\n");
        return 2;
      }
      options.shard_index = std::atoi(shard.substr(0, slash).c_str());
      options.shard_count = std::atoi(shard.substr(slash + 1).c_str());
      if (options.shard_count < 1 || options.shard_index < 0 ||
          options.shard_index >= options.shard_count) {
        std::fprintf(stderr, "error: --shard needs 0 <= i < n\n");
        return 2;
      }
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--bench-json") {
      bench_json_path = value();
    } else if (arg == "--trace-dir") {
      options.trace_dir = value();
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--journal") {
      options.journal_dir = value();
    } else if (arg == "--resume") {
      options.resume = true;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      usage(argv[0]);
    }
  }

  if (options.resume && options.journal_dir.empty()) {
    std::fprintf(stderr, "error: --resume requires --journal DIR\n");
    return 2;
  }

  ExperimentSpec spec;
  try {
    spec = load_spec_file(spec_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (!options.journal_dir.empty()) {
    options.spec_fingerprint = spec_file_fingerprint(spec_path);
  }

  if (list) {
    print_cells(spec);
    return 0;
  }

  try {
    install_signal_handlers();
    options.cancel = &g_cancel;
    if (profile) {
      obs::Profiler::enable(true);
    }
    // --progress: stderr-only, throttled to ~1 line/s by a CAS on the
    // last-print timestamp (callbacks arrive concurrently from workers).
    const auto started = std::chrono::steady_clock::now();
    std::atomic<long long> last_print_ms{-1000};
    if (progress) {
      options.on_progress = [&](int done, int total, int cells_done,
                                int cells_total) {
        const long long elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started)
                .count();
        long long last = last_print_ms.load(std::memory_order_relaxed);
        if (done < total && elapsed_ms - last < 1000) {
          return;
        }
        if (!last_print_ms.compare_exchange_strong(last, elapsed_ms)) {
          return;  // another worker is printing this tick
        }
        const double elapsed_s = static_cast<double>(elapsed_ms) / 1e3;
        const double eta_s =
            done > 0 ? elapsed_s * (total - done) / done : 0.0;
        std::fprintf(stderr,
                     "[progress] %d/%d tasks  %d/%d cells  %.1fs elapsed"
                     "  ETA %.1fs\n",
                     done, total, cells_done, cells_total, elapsed_s, eta_s);
      };
    }
    const Report report = run_experiment(spec, options);
    std::printf("=== experiment %s: %zu/%d cells (shard %d/%d), "
                "%d loads/cell ===\n",
                report.name.c_str(), report.cells.size(), report.total_cells,
                report.shard_index, report.shard_count,
                report.loads_per_cell);
    print_summary(report);
    print_claims(report);

    // Reports are written before the selfcheck verdict decides the exit
    // status: when the selfcheck fails, the (divergent) report files are
    // precisely the diagnostic CI must upload.
    const std::string json_out =
        json_path.empty() ? spec.name + ".json" : json_path;
    const std::string csv_out =
        csv_path.empty() ? spec.name + ".csv" : csv_path;
    bool wrote = util::atomic_write_file(json_out, report.to_json());
    wrote = util::atomic_write_file(csv_out, report.to_csv()) && wrote;
    if (!bench_json_path.empty()) {
      wrote =
          util::atomic_write_file(bench_json_path, report.to_bench_json()) &&
          wrote;
    }
    std::fprintf(stderr, "[experiment] wrote %s and %s\n", json_out.c_str(),
                 csv_out.c_str());

    if (profile) {
      // Wall-clock numbers: a diagnostic artifact, deliberately outside
      // the determinism-checked set (its bytes differ every run).
      std::fprintf(stderr, "%s", obs::Profiler::report().c_str());
      if (util::atomic_write_file("profile.json", obs::Profiler::to_json())) {
        std::fprintf(stderr,
                     "[experiment] wrote profile.json (wall-clock; "
                     "excluded from determinism checks)\n");
      }
    }

    if (report.interrupted) {
      // Partial artifacts are on disk (marked "interrupted": true with
      // per-cell completion counts); the journal holds every finished
      // task. Exit with the conventional interrupted status.
      std::size_t done = 0;
      std::size_t expected = 0;
      for (const CellResult& cell : report.cells) {
        done += static_cast<std::size_t>(cell.loads_done);
        expected += static_cast<std::size_t>(cell.loads_expected);
        if (cell.loads_done < cell.loads_expected) {
          std::fprintf(stderr, "[experiment]   cell %d (%s): %d/%d loads\n",
                       cell.index, cell_label(cell).c_str(), cell.loads_done,
                       cell.loads_expected);
        }
      }
      std::fprintf(
          stderr,
          "[experiment] interrupted: %zu/%zu loads done; %s\n", done,
          expected,
          options.journal_dir.empty()
              ? "no journal — a rerun starts over"
              : ("resume with: --journal " + options.journal_dir +
                 " --resume")
                    .c_str());
      return 130;
    }

    if (selfcheck) {
      // Rerun the identical experiment at a deliberately different thread
      // count; the serialized reports must match byte for byte. The rerun
      // must actually run: journal replay (or appending to the same
      // journal) would make the check vacuous, so it runs journal-free.
      const int current = (options.runner != nullptr
                               ? options.runner->thread_count()
                               : core::ParallelRunner::shared().thread_count());
      core::ParallelRunner other{current == 1 ? 4 : 1};
      RunOptions rerun_options = options;
      rerun_options.runner = &other;
      rerun_options.journal_dir.clear();
      rerun_options.resume = false;
      const Report rerun = run_experiment(spec, rerun_options);
      const bool identical = rerun.to_json() == report.to_json() &&
                             rerun.to_csv() == report.to_csv();
      std::printf("selfcheck: reports byte-identical at %d vs %d "
                  "thread(s): %s\n",
                  current, other.thread_count(), identical ? "yes" : "NO");
      if (!identical) {
        // Both sides of the divergence on disk, diffable.
        util::atomic_write_file(json_out + ".selfcheck-divergent",
                                rerun.to_json());
        return 1;
      }
    }

    if (fail_on_error) {
      // The verdict comes after every artifact is on disk (above): a
      // failing CI run still uploads its report. Each failing cell is
      // named with its typed errors so the log alone identifies the
      // culprit.
      std::size_t failed = 0;
      for (const CellResult& cell : report.cells) {
        if (cell.failed_loads == 0 && cell.load_errors.empty()) {
          continue;
        }
        failed += cell.failed_loads;
        std::fprintf(stderr, "[experiment] cell %d (%s): %zu failed load(s)\n",
                     cell.index, cell_label(cell).c_str(), cell.failed_loads);
        for (const std::string& error : cell.load_errors) {
          std::fprintf(stderr, "[experiment]   %s\n", error.c_str());
        }
      }
      if (failed > 0) {
        std::fprintf(stderr,
                     "[experiment] --fail-on-error: %zu failed load(s)\n",
                     failed);
        return 1;
      }
    }
    // Paper claims gate like --fail-on-error: after every artifact.
    const auto failed_claims = std::count_if(
        report.claims.begin(), report.claims.end(), [](const ClaimResult& c) {
          return c.status == ClaimResult::Status::kFail;
        });
    if (failed_claims > 0) {
      std::fprintf(stderr, "[experiment] %td claim(s) failed\n",
                   failed_claims);
      return 1;
    }
    return wrote ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    // Usage-class refusals (bad shard, journal-manifest mismatch): the
    // caller's invocation is wrong, not the run.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
