#pragma once

// CI perf-regression gate over the repo's "mahimahi-bench-v1" perf rows
// (BENCH_*.json, emitted by every bench driver via bench::PerfReport and
// experiment::Report::to_bench_json). A checked-in baseline file pins the
// expected value of each metric plus a per-metric tolerance band; check()
// diffs a freshly-measured file against it, classifying every metric so
// CI can fail on regressions and print a metric-by-metric delta table.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mahimahi::gate {

/// One benchmark row of a mahimahi-bench-v1 file. A metric with value 0
/// is "not reported" (the emitters write 0 for counters they don't
/// measure) and is never compared.
struct BenchRow {
  std::string name;
  double ns_per_op{0};
  double items_per_second{0};
  double bytes_per_second{0};
};

/// Parse `{"schema": "mahimahi-bench-v1", "benchmarks": [...]}`. Throws
/// std::invalid_argument (mentioning what and roughly where) on malformed
/// JSON or a wrong schema string.
std::vector<BenchRow> parse_bench_json(std::string_view text);

/// Read + parse; errors mention the path.
std::vector<BenchRow> load_bench_file(const std::string& path);

/// A pinned expectation set: rows plus tolerance bands.
/// Tolerances are relative fractions (0.05 = ±5%). A row without an
/// override uses default_tolerance; a NEGATIVE tolerance marks the row
/// informational — reported in the table, never failing the gate (for
/// wall-clock throughput metrics too noisy to gate on shared CI runners).
struct Baseline {
  double default_tolerance{0.25};
  /// Keyed by row name; applies to every compared metric of that row.
  std::map<std::string, double> tolerances;
  std::vector<BenchRow> rows;
};

/// Parse the "mahimahi-bench-baseline-v1" schema: a bench file plus
/// "default_tolerance" and an optional "tolerances" object.
Baseline parse_baseline_json(std::string_view text);
Baseline load_baseline_file(const std::string& path);

/// The baseline a refresh (`mm_bench_check --update`) starts from: nullopt
/// when `path` does not exist (a first-time pin, defaults apply), else the
/// parsed file. An existing file that cannot be read or parsed throws
/// std::invalid_argument naming the file, so a refresh never silently
/// replaces a curated tolerance policy with the defaults.
std::optional<Baseline> load_existing_baseline(const std::string& path);

/// Serialize (the refresh procedure: re-measure, then rewrite the
/// baseline keeping its tolerance policy). Fixed-precision, diffable.
std::string make_baseline_json(const Baseline& baseline);

/// How one metric of one row compared.
enum class MetricStatus {
  kOk,         // within the band
  kImproved,   // outside the band in the good direction
  kRegressed,  // outside the band in the bad direction → gate fails
  kInfo,       // informational row (negative tolerance): never fails
  kMissing,    // row in the baseline, absent from current → gate fails
  kNew,        // row measured but not pinned → refresh the baseline
};

struct MetricDelta {
  std::string row;     // benchmark name
  std::string metric;  // "ns_per_op" | "items_per_second" | "bytes_per_second"
  double baseline{0};
  double current{0};
  double change_pct{0};    // signed, relative to baseline
  double tolerance{0};     // band applied (absolute value)
  MetricStatus status{MetricStatus::kOk};
};

struct GateResult {
  std::vector<MetricDelta> deltas;  // baseline row order, then new rows
  int regressions{0};
  int missing{0};
  [[nodiscard]] bool ok() const { return regressions == 0 && missing == 0; }
};

/// Compare a measurement against the baseline. Direction-aware:
/// ns_per_op regresses upward, items/bytes_per_second regress downward.
/// Only metrics the BASELINE reports (non-zero) are compared, so adding a
/// counter to an emitter never breaks the gate until the baseline pins it.
GateResult check(const Baseline& baseline,
                 const std::vector<BenchRow>& current);

/// The metric-by-metric delta table CI prints: one row per compared
/// metric with baseline, current, signed change and verdict.
std::string format_delta_table(const GateResult& result);

}  // namespace mahimahi::gate
