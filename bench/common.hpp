#pragma once

// Shared scaffolding for the bench binaries.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace mahimahi::bench {

/// Host wall-clock stopwatch for speedup reporting (NOT simulated time).
class WallTimer {
 public:
  WallTimer() : start_{std::chrono::steady_clock::now()} {}
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable perf log: one row per benchmark (name → ns/op plus
/// throughput counters), serialized as JSON so the repo's perf trajectory
/// is diffable across PRs. Framework-agnostic — any bench driver can feed
/// rows; micro_substrate wires google-benchmark results through it and
/// writes BENCH_substrate.json (CI uploads the file as an artifact).
class PerfReport {
 public:
  struct Row {
    std::string name;
    double ns_per_op{0};
    double items_per_second{0};
    double bytes_per_second{0};
  };

  void add(Row row) { rows_.push_back(std::move(row)); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

  /// Write `{"schema": ..., "benchmarks": [...]}` (insertion order kept),
  /// atomically — a crash mid-write never leaves CI a truncated baseline.
  /// Returns false (after warning on stderr) if the file cannot be written.
  bool write(const std::string& path) const {
    std::string out =
        "{\n  \"schema\": \"mahimahi-bench-v1\",\n  \"benchmarks\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      util::append(out, i == 0 ? "" : ",", "\n    {\"name\": \"",
                   util::Escaped{row.name}, "\", \"ns_per_op\": ",
                   significant(row.ns_per_op), ", \"items_per_second\": ",
                   significant(row.items_per_second),
                   ", \"bytes_per_second\": ",
                   significant(row.bytes_per_second), "}");
    }
    out += "\n  ]\n}\n";
    return util::atomic_write_file(path, out);
  }

 private:
  /// Twelve significant digits ("%.12g"), not fixed precision: a tiny
  /// ns/op keeps its resolution instead of rounding to the 0 the gate
  /// reads as "not reported".
  static std::string significant(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.12g", value);
    return buffer;
  }

  std::vector<Row> rows_;
};

}  // namespace mahimahi::bench
