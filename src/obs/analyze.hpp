#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mahimahi::obs {

/// One parsed row of a "mahimahi-obs-trace-v1" CSV. `label` and `detail`
/// hold the cells unquoted (detail's own values stay as written; read them
/// through detail_field). `raw` keeps the exact record bytes (more than one
/// line when a quoted cell holds a line break) — divergence localization
/// is defined as the first raw-record mismatch, the same relation CI's
/// cmp-based byte checks test.
struct TraceRow {
  int load{0};
  std::int32_t session{0};
  std::int64_t t_us{0};
  std::string layer;
  std::string kind;
  std::uint64_t flow{0};
  std::uint64_t value{0};
  double metric{0};
  std::string label;
  std::string detail;
  std::string raw;
};

/// One cell's trace CSV: the header metadata plus every row in file order.
struct ParsedTrace {
  std::string experiment;
  std::string cell_label;
  int cell_index{-1};
  std::uint64_t seed{0};
  std::vector<TraceRow> rows;
};

/// Parse a trace CSV (header line, column line, rows), undoing to_csv's
/// quoting. nullopt on a malformed input, with a one-line reason in *error
/// when given.
[[nodiscard]] std::optional<ParsedTrace> parse_trace_csv(
    std::istream& in, std::string* error = nullptr);
[[nodiscard]] std::optional<ParsedTrace> parse_trace_file(
    const std::string& path, std::string* error = nullptr);

/// Extract "key=value" from a ';'-separated detail blob, unquoting a
/// quoted value; "" if absent.
[[nodiscard]] std::string detail_field(const std::string& detail,
                                       const std::string& key);
/// detail_field parsed as microseconds; -1 when absent/empty.
[[nodiscard]] std::int64_t detail_us(const std::string& detail,
                                     const std::string& key);

/// Rebuild LoadTraces from parsed rows (events, objects and pages grouped
/// by load index, preserving row order) — the input of `mm_trace metrics`,
/// `mm_trace diff` and `mm_trace export`. Reconstruction inverts to_csv
/// exactly for every field the exporters and the metric derivations read,
/// so to_chrome_trace/to_har of the result reproduce the in-run bytes.
/// Page times come back to the microsecond from their millisecond cells.
[[nodiscard]] std::vector<LoadTrace> to_load_traces(const ParsedTrace& trace);

/// The TraceMeta the CSV's header carries (the exporters' provenance).
[[nodiscard]] TraceMeta to_trace_meta(const ParsedTrace& trace);

/// ASCII per-object waterfall over the loads' time axis (the body of
/// `mm_trace dump --waterfall`). Each column shows the phase in progress at
/// that column's start instant — a phase shorter than one column simply
/// claims no column, and an object that died early ends its bar at its
/// last recorded timestamp instead of stretching to the axis end.
[[nodiscard]] std::string render_waterfall(const std::vector<TraceRow>& rows);

/// Everything `mm_trace diff` reports about one aligned cell pair.
struct CellDiff {
  std::string label;  // cell label — the alignment key
  bool in_a{true};
  bool in_b{true};
  bool identical{false};
  /// First divergent row (raw-line compare): its index, the raw lines
  /// ("" = that stream ended first) and the divergent row's coordinates
  /// (taken from whichever side still has a row at that index).
  std::size_t first_divergence{0};
  std::string a_line;
  std::string b_line;
  std::string layer;
  std::string kind;
  std::int64_t t_us{0};
  std::uint64_t flow{0};
  /// Per-(layer.kind) row-count deltas, non-zero only, ranked by |delta|.
  struct CountDelta {
    std::string key;
    std::int64_t a{0};
    std::int64_t b{0};
  };
  std::vector<CountDelta> count_deltas;
  /// Derived-metric deltas (flattened snapshots), differing entries only,
  /// ranked by |relative delta|.
  struct MetricDelta {
    std::string name;
    double a{0};
    double b{0};
    double relative{0};
  };
  std::vector<MetricDelta> metric_deltas;
};

struct TraceDiff {
  bool identical{true};
  std::vector<CellDiff> cells;  // a's label order, then cells only in b
};

/// Align two runs' cells by label and compare each pair: byte-identical
/// streams, or the first divergent row plus ranked count/metric deltas.
/// A label present in only one run is itself a divergence.
[[nodiscard]] TraceDiff diff_traces(const std::vector<ParsedTrace>& a,
                                    const std::vector<ParsedTrace>& b);

}  // namespace mahimahi::obs
