// observed-matrix: repeated run_experiment rounds of one 16-cell matrix with
// derived metrics, trace export and the crash-safety journal all on.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "experiment/runner.hpp"
#include "fault/fault.hpp"
#include "obs/analyze.hpp"
#include "obs/profile.hpp"
#include "workloads.hpp"

namespace mmbench {
namespace mm = mahimahi;
namespace fs = std::filesystem;
namespace {

constexpr int kCorpus = 500;
constexpr int kLoadsPerCell = 2;
constexpr int kMinRounds = 2;
// The "weather" rung of experiments/chaos.mx.
constexpr const char* kWeather =
    "flap:period=5s,down=400ms corrupt:rate=0.0005 crash:p=0.04 "
    "dns:fail=0.05 retry:deadline=4s,max=3,base=250ms,cap=4s";

struct Inputs {
  mm::experiment::ExperimentSpec spec;
  int cells{0};
};

/// Two sites of the seed's Alexa-calibrated corpus, from the middle of its
/// page-weight ranking, so every seed runs comparable work.
std::vector<mm::experiment::SiteAxis> median_sites(const mm::util::Rng& root) {
  const std::vector<mm::corpus::SiteSpec> drawn =
      alexa_specs_by_weight(root.fork("observed/specs"), kCorpus);
  std::vector<mm::experiment::SiteAxis> sites;
  for (const int rank : {kCorpus / 2 - 10, kCorpus / 2 + 10}) {
    const mm::corpus::SiteSpec& spec = drawn[static_cast<std::size_t>(rank)];
    sites.push_back(mm::experiment::SiteAxis{spec.name, spec});
  }
  return sites;
}

mm::experiment::ExperimentSpec make_spec(std::uint64_t seed) {
  const mm::util::Rng root{seed};
  mm::experiment::ExperimentSpec spec;
  spec.name = "observed";
  spec.seed = root.fork("observed/spec").next();
  spec.loads_per_cell = kLoadsPerCell;
  spec.probe_duration = 6'000'000;
  spec.sites = median_sites(root);
  spec.shells = {mm::experiment::ShellAxis{"cable", {delay_layer(10'000),
                                                     link_layer(5, 12)}},
                 mm::experiment::ShellAxis{"lte", {delay_layer(30'000),
                                                   lte_link_layer()}}};
  spec.ccs = {mm::experiment::CcAxis{"reno", {"reno"}},
              mm::experiment::CcAxis{"mixed", {"bbr", "cubic", "cubic"}}};
  spec.faults = {mm::experiment::FaultAxis{"none", {}},
                 mm::experiment::FaultAxis{
                     "weather", mm::fault::parse_fault_spec(kWeather)}};
  mm::experiment::validate_spec(spec);
  return spec;
}

struct Round {
  double ms{0};
  double tail_ms{0};  // last on_progress tick to return (traced runs only)
  mm::experiment::Report report;
};

/// One run_experiment call. `observed` turns on metrics, trace export and
/// the journal (under `dir`); `ticks` installs the progress observer that
/// times the post-pool tail.
Round run_round(const Inputs& inputs, mm::core::ParallelRunner& runner,
                const std::string& dir, bool observed, bool ticks) {
  mm::experiment::RunOptions options;
  options.runner = &runner;
  if (observed) {
    options.metrics = true;
    options.trace_dir = dir + "/trace";
    options.journal_dir = dir + "/journal";
  }
  std::atomic<Clock::rep> last_tick{0};
  const auto start = Clock::now();
  if (ticks) {
    options.on_progress = [&](int, int, int, int) {
      const Clock::rep now = (Clock::now() - start).count();
      Clock::rep seen = last_tick.load(std::memory_order_relaxed);
      while (seen < now && !last_tick.compare_exchange_weak(
                               seen, now, std::memory_order_relaxed)) {
      }
    };
  }
  Round round;
  round.report = mm::experiment::run_experiment(inputs.spec, options);
  const auto end = Clock::now();
  round.ms = seconds_between(start, end) * 1e3;
  round.tail_ms =
      seconds_between(start + Clock::duration{last_tick.load()}, end) * 1e3;
  return round;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// Hash of everything a round must reproduce: report JSON and CSV, and for
/// observed rounds every trace artifact plus the journal's MANIFEST and
/// events.csv (journal.bin is in completion order, so it is excluded).
std::uint64_t fingerprint(const Round& round, const std::string& dir,
                          bool observed) {
  Digest digest;
  digest.bytes(round.report.to_json());
  digest.bytes(round.report.to_csv());
  if (observed) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator{dir + "/trace"}) {
      files.push_back(entry.path());
    }
    files.push_back(dir + "/journal/MANIFEST");
    files.push_back(dir + "/journal/events.csv");
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      digest.bytes(file.filename().string());
      digest.bytes(read_file(file));
    }
  }
  return digest.state;
}

/// Operation accounting and the per-round checks. A load that ends
/// degraded under injected faults is a measured result, not a failure;
/// a task that threw or tripped its watchdog is.
void account(const Round& round, int round_index, Outcome& outcome) {
  for (const auto& cell : round.report.cells) {
    outcome.attempted += static_cast<std::uint64_t>(cell.loads_expected) + 1;
    outcome.failed += cell.load_errors.size();
    for (const std::string& error : cell.load_errors) {
      outcome.check(false, "round " + std::to_string(round_index) + " cell " +
                               std::to_string(cell.index) + ": " + error);
    }
    outcome.check(cell.loads_done == cell.loads_expected,
                  "round " + std::to_string(round_index) + " cell " +
                      std::to_string(cell.index) + " is incomplete");
  }
}

Inputs build_inputs(const Options& options, mm::core::ParallelRunner& runner) {
  Inputs inputs;
  inputs.spec = make_spec(options.seed);
  inputs.cells =
      static_cast<int>(mm::experiment::expand_matrix(inputs.spec).size());
  const std::string dir = options.scratch + "/warmup";
  (void)run_round(inputs, runner, dir, true, false);
  fs::remove_all(dir);
  return inputs;
}

void run_untraced(const Options& options, mm::core::ParallelRunner& runner,
                  const Inputs& inputs, Outcome& outcome) {
  std::vector<double> ms;
  double timed_s = 0;
  std::uint64_t first = 0;
  for (int k = 0; k < kMinRounds || timed_s < options.seconds; ++k) {
    const std::string dir = options.scratch + "/round" + std::to_string(k);
    const Round round = run_round(inputs, runner, dir, true, false);
    ms.push_back(round.ms);
    timed_s += round.ms / 1e3;
    account(round, k, outcome);
    const std::uint64_t print = fingerprint(round, dir, true);
    if (k == 0) {
      first = print;
    }
    outcome.check(print == first, "round " + std::to_string(k) +
                                      " artifacts differ from round 0");
    fs::remove_all(dir);
  }
  outcome.sim_digest = first;
  const double loads =
      static_cast<double>(ms.size()) * inputs.cells * kLoadsPerCell;
  report_loop(ms, loads, timed_s, outcome);
}

double scope_ns(const std::vector<mm::obs::Profiler::Entry>& entries,
                const std::string& name) {
  for (const auto& entry : entries) {
    if (entry.name == name) {
      return static_cast<double>(entry.total_ns);
    }
  }
  return 0;
}

/// Work counts of one observed round, read back from its exported trace
/// CSVs and journal.
void count_round(const Round& round, const std::string& dir,
                 double replay_ns, Outcome& outcome) {
  TraceCounts counts;
  double objects = 0, bytes = 0, artifact = 0;
  for (const auto& entry : fs::directory_iterator{dir + "/trace"}) {
    artifact += static_cast<double>(entry.file_size());
    if (entry.path().extension() != ".csv") {
      continue;
    }
    std::string error;
    const auto parsed =
        mm::obs::parse_trace_file(entry.path().string(), &error);
    outcome.check(parsed.has_value(), "cannot parse " +
                                          entry.path().string() + ": " + error);
    if (!parsed.has_value()) {
      continue;
    }
    for (const mm::obs::LoadTrace& load : mm::obs::to_load_traces(*parsed)) {
      counts.add(load.buffer);
      for (const mm::obs::ObjectRecord& object : load.buffer.objects) {
        objects += object.failed ? 0 : 1;
        bytes += static_cast<double>(object.bytes);
      }
    }
  }
  double retries = 0, degraded = 0, plt_sum = 0, plt_count = 0, jain = 0;
  for (const auto& cell : round.report.cells) {
    retries += static_cast<double>(cell.retries);
    degraded += static_cast<double>(cell.failed_loads);
    for (const double plt : cell.plt_ms.values()) {
      plt_sum += plt;
      ++plt_count;
    }
    jain += cell.jain_index;
  }
  counts.report(1, outcome);
  auto& m = outcome.metrics;
  m["net.ns_per_pkt"] = replay_ns / static_cast<double>(counts.link_pkts);
  m["web.objects_per_task"] = objects;
  m["web.kbytes_per_task"] = bytes / 1e3;
  m["web.retries_per_task"] = retries;
  m["fault.degraded_loads_per_task"] = degraded;
  m["obs.artifact_kb_per_task"] = artifact / 1e3;
  m["journal.kbytes_per_task"] =
      static_cast<double>(fs::file_size(dir + "/journal/journal.bin")) / 1e3;
  m["sim.plt_ms_mean"] = plt_sum / plt_count;
  m["sim.jain_mean"] = jain / static_cast<double>(round.report.cells.size());
}

/// Rounds alternate between observed (metrics + trace export + journal)
/// and plain; the profiler's runner-phase scopes split the observed ones.
void run_traced(const Options& options, mm::core::ParallelRunner& runner,
                const Inputs& inputs, Outcome& outcome) {
  mm::obs::Profiler::enable(true);
  std::vector<double> observed_ms, plain_ms;
  double timed_s = 0, wall = 0, tail = 0, record = 0, metrics = 0,
         exports = 0, journal = 0, simulate = 0;
  std::uint64_t first_observed = 0, first_plain = 0;
  std::string observed_csv;
  for (int k = 0; k < 2 * kMinRounds || timed_s < options.seconds; ++k) {
    const bool observed = k % 2 == 0;
    const std::string dir = options.scratch + "/round" + std::to_string(k);
    mm::obs::Profiler::reset();
    const Round round = run_round(inputs, runner, dir, observed, true);
    timed_s += round.ms / 1e3;
    account(round, k, outcome);
    const std::uint64_t print = fingerprint(round, dir, observed);
    const std::string csv = round.report.to_csv();
    if (observed) {
      observed_ms.push_back(round.ms);
      const auto entries = mm::obs::Profiler::snapshot();
      const double replay_ns = scope_ns(entries, "replay");
      wall += round.ms * 1e6;
      tail += round.tail_ms * 1e6;
      record += scope_ns(entries, "record");
      metrics += scope_ns(entries, "metrics");
      exports += scope_ns(entries, "export");
      journal += scope_ns(entries, "journal");
      simulate += replay_ns + scope_ns(entries, "probe");
      if (k == 0) {
        first_observed = print;
        observed_csv = csv;
        count_round(round, dir, replay_ns, outcome);
      }
      outcome.check(print == first_observed,
                    "observed round " + std::to_string(k) + " differs");
    } else {
      plain_ms.push_back(round.ms);
      if (k == 1) {
        first_plain = print;
      }
      outcome.check(print == first_plain,
                    "plain round " + std::to_string(k) + " differs");
      outcome.check(csv == observed_csv, "observability changed the report");
    }
    fs::remove_all(dir);
  }
  mm::obs::Profiler::enable(false);
  outcome.sim_digest = first_observed;
  auto& m = outcome.metrics;
  m["experiment.record_frac"] = record / wall;
  m["experiment.tail_frac"] = tail / wall;
  m["obs.metrics_frac"] = metrics / wall;
  m["obs.export_frac"] = exports / wall;
  m["journal.write_frac"] = journal / (simulate + journal);
  m["net.run_frac"] = simulate / (simulate + journal);
  m["obs.traced_task_ms_p50"] = percentile(observed_ms, 50);
  m["obs.traced_overhead_frac"] =
      percentile(observed_ms, 50) / percentile(plain_ms, 50) - 1;
  m["net.queue_ns_per_pkt"] = queue_ns_per_pkt({mm::net::QueueSpec{}});
}

}  // namespace

Outcome run_observed_matrix(const Options& options,
                            mm::core::ParallelRunner& runner) {
  Outcome outcome;
  const Inputs inputs =
      repeated_setup([&] { return build_inputs(options, runner); }, outcome);
  if (options.traced) {
    run_traced(options, runner, inputs, outcome);
  } else {
    run_untraced(options, runner, inputs, outcome);
  }
  return outcome;
}

}  // namespace mmbench
