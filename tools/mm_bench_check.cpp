// mm-bench-check: the CI perf-regression gate.
//
//   usage: mm_bench_check [--update] <baseline.json> <current.json>
//                         [<baseline.json> <current.json> ...]
//
// Each pair diffs a freshly-measured mahimahi-bench-v1 file (BENCH_*.json)
// against its checked-in mahimahi-bench-baseline-v1 file under
// bench/baselines/. For every metric the baseline pins (non-zero value)
// the gate applies the row's tolerance band — direction-aware: ns_per_op
// may not rise past the band, items/bytes_per_second may not fall past it
// — and prints a metric-by-metric delta table. A row with a negative
// tolerance is informational: printed, never failing (wall-clock
// throughput on shared CI runners).
//
//   --update   rewrite each baseline from the current measurement, keeping
//              the existing tolerance policy (the documented refresh
//              procedure — see bench/baselines/README.md). The gate is
//              not applied. Only a missing baseline starts a fresh pin;
//              an existing one that is unreadable or malformed is refused
//              (exit 2) and left untouched.
//
// Exit status: 0 all gates pass (or --update wrote all baselines),
//              1 at least one regression / missing benchmark,
//              2 usage or file/parse error.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "gate/bench_gate.hpp"
#include "util/atomic_file.hpp"

using namespace mahimahi;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--update] <baseline.json> <current.json> "
               "[<baseline.json> <current.json> ...]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool update = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) {
      update = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      usage(argv[0]);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty() || paths.size() % 2 != 0) {
    usage(argv[0]);
  }

  bool all_ok = true;
  for (std::size_t i = 0; i < paths.size(); i += 2) {
    const std::string& baseline_path = paths[i];
    const std::string& current_path = paths[i + 1];
    try {
      const std::vector<gate::BenchRow> current =
          gate::load_bench_file(current_path);
      if (update) {
        // Refresh: keep the tolerance policy, re-pin every measured row. A
        // malformed existing baseline throws (exit 2, file untouched).
        std::optional<gate::Baseline> existing =
            gate::load_existing_baseline(baseline_path);
        if (!existing.has_value()) {
          // First-time pin: defaults apply until tolerances are curated.
          std::fprintf(stderr, "[gate] %s: creating new baseline\n",
                       baseline_path.c_str());
        }
        gate::Baseline baseline = existing.value_or(gate::Baseline{});
        baseline.rows = current;
        // Atomic (temp + fsync + rename): a refresh can never leave a
        // baseline half-written, even if the runner is killed mid-write.
        if (!util::atomic_write_file(baseline_path,
                                     gate::make_baseline_json(baseline))) {
          return 2;
        }
        std::printf("updated %s from %s (%zu rows)\n", baseline_path.c_str(),
                    current_path.c_str(), current.size());
        continue;
      }
      const gate::Baseline baseline =
          gate::load_baseline_file(baseline_path);
      const gate::GateResult result = gate::check(baseline, current);
      std::printf("=== %s vs %s ===\n", current_path.c_str(),
                  baseline_path.c_str());
      std::fputs(gate::format_delta_table(result).c_str(), stdout);
      if (result.ok()) {
        std::printf("gate: PASS (%zu metrics within their bands)\n\n",
                    result.deltas.size());
      } else {
        std::printf("gate: FAIL (%d regression(s), %d missing); if the "
                    "change is intentional, refresh with: mm_bench_check "
                    "--update %s %s\n\n",
                    result.regressions, result.missing, baseline_path.c_str(),
                    current_path.c_str());
        all_ok = false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  return all_ok ? 0 : 1;
}
