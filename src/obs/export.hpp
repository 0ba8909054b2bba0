#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace mahimahi::obs {

/// One load's buffer tagged with its global load index — the merge key.
/// Exporters require the vector sorted by load_index (the experiment
/// runner merges task results in index order), which makes exported bytes
/// independent of thread count and shard assignment.
struct LoadTrace {
  int load_index{0};
  TraceBuffer buffer;
};

/// Provenance stamped into every artifact.
struct TraceMeta {
  std::string experiment;
  std::string cell_label;
  int cell_index{0};
  std::uint64_t cell_seed{0};
};

/// Chrome trace-event JSON (the "JSON Array Format" inside an object with
/// displayTimeUnit) — loadable in Perfetto / chrome://tracing. One process
/// per load, one thread lane per (session, layer); queue depth and cwnd
/// become counter tracks, objects and pages become complete spans.
[[nodiscard]] std::string to_chrome_trace(const TraceMeta& meta,
                                          const std::vector<LoadTrace>& loads);

/// HAR 1.2: one page per (load, session) PageRecord, one entry per
/// ObjectRecord. Virtual timestamps are mapped onto a fixed fake epoch so
/// the ISO date strings are deterministic.
[[nodiscard]] std::string to_har(const TraceMeta& meta,
                                 const std::vector<LoadTrace>& loads);

/// Flat CSV time series (one row per event, object and page) — the input
/// format of `mm_trace dump|metrics|diff`.
[[nodiscard]] std::string to_csv(const TraceMeta& meta,
                                 const std::vector<LoadTrace>& loads);

/// `text` as one cell of the trace and metrics CSVs: the bytes those
/// formats reserve (',', '\n', '\r') become ';'.
[[nodiscard]] std::string csv_field(std::string_view text);

}  // namespace mahimahi::obs
