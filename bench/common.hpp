#pragma once

// Shared scaffolding for the paper-reproduction bench binaries.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/parallel_runner.hpp"
#include "core/sessions.hpp"
#include "corpus/alexa.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/statistics.hpp"

namespace mahimahi::bench {

/// Integer knob from the environment (bench scale controls).
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return fallback;
  }
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

/// The process-wide measurement pool every bench driver fans out on.
/// Thread count: MAHI_THREADS env, else hardware concurrency. Results are
/// merged in load-index order, so bench output does not depend on it.
inline core::ParallelRunner& shared_runner() {
  return core::ParallelRunner::shared();
}

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

/// One recorded corpus site ready for replay.
struct CorpusEntry {
  corpus::GeneratedSite site;
  record::RecordStore store;
};

/// Generate and record `count` Alexa-calibrated sites (the recording runs
/// the real RecordShell pipeline per site). Deterministic given `seed`:
/// the specs are drawn sequentially from one stream, then each site's
/// expensive generate+record runs as an independent task — its seed is
/// fixed before dispatch, so the corpus is identical at any thread count.
inline std::vector<CorpusEntry> build_recorded_corpus(int count,
                                                      std::uint64_t seed) {
  util::Rng rng{seed};
  util::Rng spec_rng = rng.fork("specs");
  const auto server_counts = corpus::alexa_server_counts(spec_rng, count);
  std::vector<corpus::SiteSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    specs.push_back(corpus::alexa_site_spec(
        i, server_counts[static_cast<std::size_t>(i)], spec_rng));
  }

  std::atomic<int> recorded{0};
  return shared_runner().map(count, [&](int i) {
    CorpusEntry entry{corpus::generate_site(specs[static_cast<std::size_t>(i)]),
                      record::RecordStore{}};
    core::SessionConfig config;
    config.seed = seed + static_cast<std::uint64_t>(i) * 101;
    core::RecordSession session{entry.site, corpus::LiveWebConfig{}, config};
    entry.store = session.record();
    const int done = recorded.fetch_add(1, std::memory_order_relaxed) + 1;
    if (done % 50 == 0) {
      std::fprintf(stderr, "  [corpus] recorded %d/%d sites\n", done, count);
    }
    return entry;
  });
}

/// Print a CDF as (value, cumulative fraction) rows at the given
/// percentile grid — the series behind the paper's CDF figures.
inline void print_cdf(const char* label, const util::Samples& samples) {
  std::printf("# CDF %s (n=%zu)\n", label, samples.size());
  for (const double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    std::printf("%-28s p%-4.0f %10.1f ms\n", label, p, samples.percentile(p));
  }
}

inline void print_rule() {
  std::printf("-------------------------------------------------------------------\n");
}

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
