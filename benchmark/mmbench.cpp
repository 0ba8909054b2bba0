// mmbench — the end-to-end benchmark of the toolkit.
//
//   mmbench --workload NAME --seed N --seconds S --trace 0|1
//           [--traced] [--out DIR] [--scratch DIR]
//   mmbench --list            metric and workload tables
//   mmbench --workloads       workload names, one per line
//   mmbench --benchmark-json  BENCHMARK.json as the tables define it
//   mmbench compare BASE_DIR CHANGE_DIR
//
// A run prints one `<workload> <metric> <value> <unit>` line per metric
// (end-to-end metrics untraced, per-layer metrics with --trace 1) and ends
// with one JSON object: {"correct", "attempted", "failed", "metrics"}. It
// exits 1 when a correctness check fails, 2 on a usage error.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "compare.hpp"
#include "table.hpp"
#include "util/atomic_file.hpp"
#include "workloads.hpp"

namespace mmbench {
namespace {

namespace fs = std::filesystem;

using WorkloadFn = Outcome (*)(const Options&, mahimahi::core::ParallelRunner&);

WorkloadFn workload_fn(const std::string& name) {
  if (name == "replay-alexa500") return run_replay_alexa500;
  if (name == "bulk-transport") return run_bulk_transport;
  if (name == "crowd-shared") return run_crowd_shared;
  if (name == "observed-matrix") return run_observed_matrix;
  throw std::invalid_argument{"unknown workload '" + name +
                              "' (see mmbench --workloads)"};
}

/// min(4, CPUs this process may run on).
int worker_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::max(1, std::min(4, cpus));
}

bool is_time_unit(std::string_view unit) {
  return unit == "ns" || unit == "us" || unit == "ms" || unit == "s";
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.12g", value);
  return text;
}

/// Removes the run's private scratch directory however the run ends.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string dir) : path{std::move(dir)} {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

std::string result_path(const std::string& dir, const Options& options) {
  fs::create_directories(dir);
  const std::string stem = dir + "/" + options.workload + ".seed" +
                           std::to_string(options.seed) + ".trace" +
                           (options.traced ? "1" : "0");
  for (int k = 0;; ++k) {
    const std::string path = stem + "." + std::to_string(k) + ".txt";
    if (!fs::exists(path)) {
      return path;
    }
  }
}

int run(const Options& options, const std::string& out_dir) {
  const WorkloadFn fn = workload_fn(options.workload);
  Outcome outcome;
  {
    mahimahi::core::ParallelRunner runner{options.threads};
    outcome = fn(options, runner);
  }
  if (options.traced) {
    auto& m = outcome.metrics;
    m["net.loop_ns_per_event"] = loop_ns_per_event(options.seed);
    m["obs.tracer_ns_per_event"] = tracer_ns_per_event(options.seed);
    m["journal.append_us_p50"] =
        journal_append_us_p50(options.scratch + "/journal-micro");
  } else {
    outcome.metrics["peak_rss_mb"] = peak_rss_mb();
  }

  std::ostringstream lines;
  std::ostringstream json_metrics;
  lines << "# " << options.workload << " seed=" << options.seed
        << " trace=" << (options.traced ? 1 : 0)
        << " threads=" << options.threads << " seconds=" << options.seconds
        << "\n";
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(outcome.sim_digest));
  lines << "# " << options.workload << " sim_digest " << digest << "\n";
  if (!options.traced) {
    lines << "# " << options.workload << " tasks " << outcome.tasks
          << " task_ms_p90 " << number(outcome.task_ms_p90) << "\n";
  }
  bool first = true;
  for (const Metric& metric : kMetrics) {
    if ((metric.kind == Kind::kEndToEnd) == options.traced) {
      continue;
    }
    const std::string name{metric.name};
    auto it = outcome.metrics.find(name);
    if (it == outcome.metrics.end()) {
      // A bypassed layer does no work: its counts and shares are 0. A
      // time must always be measured.
      outcome.check(!is_time_unit(metric.unit), name + " was not measured");
      it = outcome.metrics.emplace(name, 0.0).first;
    }
    lines << options.workload << ' ' << name << ' ' << number(it->second)
          << ' ' << metric.unit << "\n";
    json_metrics << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
                 << number(it->second) << ", \"unit\": \"" << metric.unit
                 << "\"}";
    first = false;
  }
  const bool correct = outcome.checks_failed == 0;
  const std::string json =
      std::string{"{\"correct\": "} + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {" +
      json_metrics.str() + "}}\n";
  for (const std::string& failure : outcome.check_failures) {
    std::fprintf(stderr, "mmbench: check failed: %s\n", failure.c_str());
  }
  if (outcome.checks_failed > outcome.check_failures.size()) {
    std::fprintf(stderr, "mmbench: ... %zu check failures in all\n",
                 outcome.checks_failed);
  }
  const std::string text = lines.str() + json;
  std::fputs(text.c_str(), stdout);
  std::fflush(stdout);
  if (!out_dir.empty()) {
    mahimahi::util::atomic_write_file(result_path(out_dir, options), text);
  }
  return correct ? 0 : 1;
}

void print_list() {
  std::printf("workloads (run_seconds %d):\n", kRunSeconds);
  for (const Workload& w : kWorkloads) {
    std::printf("  %-16s task: %s; work unit: %s\n    why: %s\n",
                std::string{w.name}.c_str(), std::string{w.task}.c_str(),
                std::string{w.work_unit}.c_str(), std::string{w.why}.c_str());
  }
  std::printf("\n%-30s %-6s %-6s %-6s %-10s %-21s %s\n", "metric", "unit",
              "better", "bound", "layer", "workloads", "measures / moves");
  for (const Metric& m : kMetrics) {
    const char* kind = m.kind == Kind::kEndToEnd ? nullptr
                       : m.kind == Kind::kExact  ? "exact"
                                                 : "-";
    std::printf("%-30s %-6s %-6s %-6s %-10s %-21s %s\n",
                std::string{m.name}.c_str(), std::string{m.unit}.c_str(),
                m.better == Better::kLower ? "lower" : "higher",
                kind == nullptr ? number(m.bound).c_str() : kind,
                std::string{m.layer}.c_str(), std::string{m.workloads}.c_str(),
                std::string{m.moves}.c_str());
  }
}

/// BENCHMARK.json's fields are written without escaping, so the tables
/// must stay within the characters and lengths the format allows:
/// `extra` lists the characters allowed besides letters and digits (null
/// for free text, which only excludes quotes, backslashes and newlines).
void check_field(std::string_view text, std::size_t max, const char* extra) {
  bool ok = !text.empty() && text.size() <= max;
  for (const char c : text) {
    const bool listed = extra != nullptr &&
                        (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                         std::string_view{extra}.find(c) != std::string::npos);
    ok = ok && (extra == nullptr ? c != '"' && c != '\\' && c != '\n'
                                 : listed);
  }
  if (!ok) {
    throw std::logic_error{"table field out of bounds: " + std::string{text}};
  }
}

void check_name(std::string_view name) {
  check_field(name, 64, "_.-");
  check_field(name.substr(0, 1), 1, "");
}

void print_benchmark_json() {
  std::printf("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
  std::printf("  \"paths\": [\"benchmark\"],\n");
  std::printf("  \"run_seconds\": %d,\n  \"workloads\": [\n", kRunSeconds);
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    const Workload& w = kWorkloads[i];
    check_name(w.name);
    check_field(w.why, 200, nullptr);
    std::printf("    {\"name\": \"%s\", \"why\": \"%s\"}%s\n",
                std::string{w.name}.c_str(), std::string{w.why}.c_str(),
                i + 1 < kWorkloads.size() ? "," : "");
  }
  for (const bool end_to_end : {true, false}) {
    std::printf("  ],\n  \"%s\": [\n", end_to_end ? "end_to_end" : "per_layer");
    bool first = true;
    for (const Metric& m : kMetrics) {
      if ((m.kind == Kind::kEndToEnd) != end_to_end) {
        continue;
      }
      check_name(m.name);
      check_field(m.unit, 16, "_/%.-");
      std::printf("%s    {\"name\": \"%s\", \"unit\": \"%s\", "
                  "\"better\": \"%s\"",
                  first ? "" : ",\n", std::string{m.name}.c_str(),
                  std::string{m.unit}.c_str(),
                  m.better == Better::kLower ? "lower" : "higher");
      if (end_to_end) {
        std::printf(", \"bound\": %s", number(m.bound).c_str());
      }
      std::printf("}");
      first = false;
    }
    std::printf("\n");
  }
  std::printf("  ]\n}\n");
}

int main_impl(int argc, char** argv) {
  Options options;
  options.threads = worker_count();
  options.seconds = kRunSeconds;
  std::string out_dir;
  std::string scratch_root = "build-bench/scratch";
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument{std::string{argv[i]} + " needs a value"};
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "compare") {
      if (argc != i + 3) {
        throw std::invalid_argument{
            "usage: mmbench compare BASE_DIR CHANGE_DIR"};
      }
      return compare_main(argv[i + 1], argv[i + 2]);
    }
    if (arg == "--list") {
      print_list();
      return 0;
    }
    if (arg == "--workloads") {
      for (const Workload& w : kWorkloads) {
        std::printf("%s\n", std::string{w.name}.c_str());
      }
      return 0;
    }
    if (arg == "--benchmark-json") {
      print_benchmark_json();
      return 0;
    }
    if (arg == "--workload") {
      options.workload = value(i);
    } else if (arg == "--seed") {
      options.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value(i));
    } else if (arg == "--trace") {
      const std::string trace = value(i);
      if (trace != "0" && trace != "1") {
        throw std::invalid_argument{"--trace takes 0 or 1"};
      }
      options.traced = trace == "1";
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--out") {
      out_dir = value(i);
    } else if (arg == "--scratch") {
      scratch_root = value(i);
    } else {
      throw std::invalid_argument{"unknown argument '" + arg + "'"};
    }
  }
  if (options.workload.empty()) {
    throw std::invalid_argument{"--workload is required (see --workloads)"};
  }
  if (!(options.seconds > 0)) {
    throw std::invalid_argument{"--seconds must be positive"};
  }
  (void)workload_fn(options.workload);
  const ScratchDir scratch{scratch_root + "/" + options.workload + "-" +
                           std::to_string(::getpid())};
  options.scratch = scratch.path;
  return run(options, out_dir);
}

}  // namespace
}  // namespace mmbench

int main(int argc, char** argv) {
  try {
    return mmbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmbench: %s\n", e.what());
    return 2;
  }
}
