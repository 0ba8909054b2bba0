#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace mahimahi::obs {

/// One load's buffer tagged with its global load index — the merge key.
/// Exporters require the vector sorted by load_index, each index once (the
/// experiment runner merges task results in index order), which makes
/// exported bytes independent of thread count and shard assignment.
struct LoadTrace {
  int load_index{0};
  TraceBuffer buffer;

  friend bool operator==(const LoadTrace&, const LoadTrace&) = default;
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

/// Flat CSV time series (one row per event, object and page) — the one
/// on-disk trace `mm_experiment --trace-dir` writes, and the input of
/// `mm_trace dump|metrics|diff|export`. Lossless for every field the
/// Chrome and HAR exporters read: obs::to_load_traces of the parsed file
/// renders both byte for byte. A `metric` is "%.6f" where that reads back
/// exactly and shortest round-trip digits otherwise; a text cell is
/// RFC 4180-quoted only when it holds ',', CR or LF or starts with '"';
/// an object's kind/error is quoted inside the detail cell only when it
/// holds ';' or starts with '"'; a header value only when it holds a space,
/// CR or LF or starts with '"'. A load with an empty buffer is one
/// `runner,empty-load` row, so it is not lost.
[[nodiscard]] std::string to_csv(const TraceMeta& meta,
                                 const std::vector<LoadTrace>& loads);

/// Append `text` as one cell of the trace and metrics CSVs: verbatim, or
/// RFC 4180-quoted when it holds ',', CR or LF or starts with '"'.
void append_csv_field(std::string& out, std::string_view text);

/// util::append() piece written through append_csv_field.
struct CsvField {
  std::string_view text;
};
inline void append_piece(std::string& out, CsvField piece) {
  append_csv_field(out, piece.text);
}

}  // namespace mahimahi::obs
