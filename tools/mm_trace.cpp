// mm-trace: inspect, measure, render and compare the observability traces
// written by mm_experiment --trace-dir (cell<i>.csv, format
// "mahimahi-obs-trace-v1") and the journal's events.csv. Not to be
// confused with mm_trace_info, which reports on *cellular rate traces*
// (packet-delivery schedules); this tool reads *obs traces* — the
// per-load event/object/page streams recorded by obs::Tracer. Parsing,
// metric derivation, the waterfall renderer and the diff all live in
// obs/analyze; the Chrome and HAR views are obs/export's.
//
//   usage: mm_trace dump <cell.csv> [options]
//     --layer NAME     only this layer (link, tcp, dns, fault, browser,
//                      runner — the journal's events.csv uses it)
//     --stream N       only this session (stream) index; -1 = shared infra
//     --load N         only this load index
//     --events         list the matching raw events instead of a summary
//     --waterfall      ASCII per-object waterfall (DNS → connect →
//                      request → first byte → complete) for the matching
//                      loads/sessions
//   The default output is a summary: per-layer/kind event counts, per-load
//   page results, and object failure totals. Filters compose with every
//   mode.
//
//   usage: mm_trace metrics <cell.csv> [--csv]
//   Runs the exact derivation mm_experiment --metrics performs in-process
//   (counters, gauges, log-bucketed histograms: queue residence, cwnd
//   convergence, retransmit bursts, PLT critical-path shares, fault
//   recovery) on an already-exported trace, and prints the snapshot as
//   JSON (default) or CSV. Deriving from the CSV reproduces the in-run
//   snapshot byte for byte — the trace carries every field the derivation
//   consumes.
//
//   usage: mm_trace export chrome|har <cell.csv>
//   Renders a cell's Chrome trace-event JSON (load it in Perfetto or
//   chrome://tracing) or its HAR 1.2 to stdout. The CSV is lossless for
//   every field those views read, so the output is byte for byte what the
//   exporters make of the in-run trace buffers.
//
//   usage: mm_trace diff <a> <b> [--max-deltas N]
//   <a> and <b> are either two --trace-dir directories (every cell*.csv in
//   each is loaded and cells are aligned by label) or two single cell
//   CSVs. For each aligned cell pair it reports:
//     - byte-identical, or
//     - the first divergent event (row index, layer, kind, t_us, flow, both
//       raw lines),
//     - per-(layer.kind) event-count deltas ranked by |delta|, and
//     - derived-metric deltas (counters / gauges / histogram stats from the
//       same derivation as `metrics`) ranked by |relative delta|.
//   A cell label present in only one run is itself a divergence.
//
// Exit status: dump 0 ok, 1 parse failure, 2 usage error;
//              metrics and export 0 ok, 2 usage/load error;
//              diff 0 identical, 1 divergent, 2 usage/load error.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/analyze.hpp"

using namespace mahimahi::obs;

namespace {

/// A subcommand's command line: positionals in order, flags by name (""
/// for a switch; the last occurrence wins).
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] bool has(const std::string& flag) const {
    return options.count(flag) != 0;
  }
  [[nodiscard]] int number(const std::string& flag) const {
    return std::atoi(options.at(flag).c_str());
  }
};

/// Parse one trace CSV; on failure print "error: <path>: <reason><hint>".
std::optional<ParsedTrace> load_trace(const std::string& path,
                                      const char* hint = "") {
  std::string error;
  auto parsed = parse_trace_file(path, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "error: %s: %s%s\n", path.c_str(), error.c_str(),
                 hint);
  }
  return parsed;
}

// ---- dump -------------------------------------------------------------------

void print_summary(const ParsedTrace& trace,
                   const std::vector<TraceRow>& rows) {
  std::printf("# mahimahi-obs-trace-v1 experiment=%s cell=%d label=%s "
              "seed=%llu\n",
              trace.experiment.c_str(), trace.cell_index,
              trace.cell_label.c_str(),
              static_cast<unsigned long long>(trace.seed));

  std::map<int, std::size_t> per_load;
  std::map<std::int32_t, std::size_t> per_session;
  std::map<std::string, std::map<std::string, std::size_t>> per_layer_kind;
  std::size_t objects = 0;
  std::size_t failed_objects = 0;
  std::uint64_t object_bytes = 0;
  std::vector<const TraceRow*> pages;
  for (const TraceRow& row : rows) {
    per_load[row.load]++;
    per_session[row.session]++;
    per_layer_kind[row.layer][row.kind]++;
    if (row.layer == "browser" && row.kind == "object") {
      ++objects;
      object_bytes += row.value;
      if (detail_field(row.detail, "failed") == "1") {
        ++failed_objects;
      }
    } else if (row.layer == "browser" && row.kind == "page") {
      pages.push_back(&row);
    }
  }

  std::printf("rows: %zu across %zu load(s), %zu stream(s)\n", rows.size(),
              per_load.size(), per_session.size());
  for (const auto& [layer, kinds] : per_layer_kind) {
    std::size_t total = 0;
    for (const auto& [kind, count] : kinds) {
      total += count;
    }
    std::printf("  %-8s %8zu\n", layer.c_str(), total);
    for (const auto& [kind, count] : kinds) {
      std::printf("    %-24s %8zu\n", kind.c_str(), count);
    }
  }
  const auto runner = per_layer_kind.find("runner");
  if (runner != per_layer_kind.end()) {
    // Runner-lifecycle counters (journal events.csv, or watchdog rows in a
    // cell trace): the crash-safety story of the run at a glance.
    const auto count = [&](const char* kind) -> std::size_t {
      const auto it = runner->second.find(kind);
      return it == runner->second.end() ? 0 : it->second;
    };
    std::printf("runner: journaled=%zu replayed=%zu cancelled=%zu "
                "retried=%zu watchdog-expired=%zu\n",
                count("journal-append"), count("journal-replay"),
                count("task-cancelled"), count("task-retry"),
                count("watchdog-expired"));
  }
  if (objects > 0) {
    std::printf("objects: %zu (%zu failed), %llu bytes\n", objects,
                failed_objects, (unsigned long long)object_bytes);
  }
  if (!pages.empty()) {
    std::printf("pages:\n");
    for (const TraceRow* page : pages) {
      std::printf("  load %d stream %d  %-40s  plt=%8.1f ms  "
                  "degraded=%8s ms  %s\n",
                  page->load, page->session, page->label.c_str(), page->metric,
                  detail_field(page->detail, "degraded_ms").c_str(),
                  page->value != 0 ? "ok" : "FAILED");
    }
  }
}

void print_events(const std::vector<TraceRow>& rows) {
  for (const TraceRow& row : rows) {
    if (row.kind == "object" || row.kind == "page") {
      continue;  // synthetic summary rows; use --waterfall / summary
    }
    std::printf("%4d %4d %12lld us  %-8s %-20s flow=%-4llu value=%-8llu "
                "metric=%-10.3f %s\n",
                row.load, row.session, static_cast<long long>(row.t_us),
                row.layer.c_str(), row.kind.c_str(),
                (unsigned long long)row.flow, (unsigned long long)row.value,
                row.metric, row.label.c_str());
  }
}

int run_dump(const Args& args) {
  const auto parsed = load_trace(
      args.positional[0],
      " (did you mean mm_trace_info, for cellular rate traces?)");
  if (!parsed.has_value()) {
    return 1;
  }
  std::vector<TraceRow> rows;
  for (const TraceRow& row : parsed->rows) {
    if ((!args.has("--layer") || row.layer == args.options.at("--layer")) &&
        (!args.has("--stream") || row.session == args.number("--stream")) &&
        (!args.has("--load") || row.load == args.number("--load"))) {
      rows.push_back(row);
    }
  }
  if (args.has("--waterfall")) {
    const std::string out = render_waterfall(rows);
    std::fwrite(out.data(), 1, out.size(), stdout);
  } else if (args.has("--events")) {
    print_events(rows);
  } else {
    print_summary(*parsed, rows);
  }
  return 0;
}

// ---- metrics ----------------------------------------------------------------

int run_metrics(const Args& args) {
  const auto parsed = load_trace(args.positional[0]);
  if (!parsed.has_value()) {
    return 2;
  }
  const MetricsSnapshot snapshot = derive_cell_metrics(to_load_traces(*parsed));
  const std::string out =
      args.has("--csv") ? snapshot.to_csv() : snapshot.to_json();
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

// ---- export -----------------------------------------------------------------

int run_export(const Args& args) {
  const std::string& view = args.positional[0];
  if (view != "chrome" && view != "har") {
    std::fprintf(stderr, "error: unknown view '%s' (want chrome or har)\n",
                 view.c_str());
    return 2;
  }
  const auto parsed = load_trace(args.positional[1]);
  if (!parsed.has_value()) {
    return 2;
  }
  const TraceMeta meta = to_trace_meta(*parsed);
  const std::vector<LoadTrace> loads = to_load_traces(*parsed);
  const std::string out = view == "chrome" ? to_chrome_trace(meta, loads)
                                           : to_har(meta, loads);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

// ---- diff -------------------------------------------------------------------

/// Load one run: a directory of cell*.csv (sorted by filename so the order
/// is stable) or a single CSV file. Empty vector = error (already printed).
std::vector<ParsedTrace> load_run(const std::string& path) {
  std::vector<std::string> files;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator{path, ec}) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("cell", 0) == 0 && name.size() > 4 &&
          name.substr(name.size() - 4) == ".csv") {
        files.push_back(entry.path().string());
      }
    }
    if (files.empty()) {
      std::fprintf(stderr, "error: no cell*.csv in %s\n", path.c_str());
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  std::vector<ParsedTrace> traces;
  for (const std::string& file : files) {
    auto parsed = load_trace(file);
    if (!parsed.has_value()) {
      return {};
    }
    traces.push_back(std::move(*parsed));
  }
  return traces;
}

void print_cell(const CellDiff& cell, std::size_t max_deltas) {
  if (!cell.in_a || !cell.in_b) {
    std::printf("cell %-40s  only in %s\n", cell.label.c_str(),
                cell.in_a ? "A" : "B");
    return;
  }
  if (cell.identical) {
    std::printf("cell %-40s  identical\n", cell.label.c_str());
    return;
  }
  std::printf("cell %-40s  DIVERGENT\n", cell.label.c_str());
  std::printf("  first divergence: event index %zu  layer=%s kind=%s "
              "t_us=%lld flow=%llu\n",
              cell.first_divergence, cell.layer.c_str(), cell.kind.c_str(),
              static_cast<long long>(cell.t_us),
              static_cast<unsigned long long>(cell.flow));
  std::printf("    A: %s\n",
              cell.a_line.empty() ? "<stream ended>" : cell.a_line.c_str());
  std::printf("    B: %s\n",
              cell.b_line.empty() ? "<stream ended>" : cell.b_line.c_str());
  std::size_t shown = 0;
  for (const CellDiff::CountDelta& delta : cell.count_deltas) {
    if (shown++ >= max_deltas) {
      std::printf("  ... %zu more count delta(s)\n",
                  cell.count_deltas.size() - max_deltas);
      break;
    }
    std::printf("  count %-32s A=%lld B=%lld (%+lld)\n", delta.key.c_str(),
                static_cast<long long>(delta.a),
                static_cast<long long>(delta.b),
                static_cast<long long>(delta.b - delta.a));
  }
  shown = 0;
  for (const CellDiff::MetricDelta& delta : cell.metric_deltas) {
    if (shown++ >= max_deltas) {
      std::printf("  ... %zu more metric delta(s)\n",
                  cell.metric_deltas.size() - max_deltas);
      break;
    }
    std::printf("  metric %-40s A=%.6f B=%.6f (%+.2f%%)\n",
                delta.name.c_str(), delta.a, delta.b,
                delta.relative * 100.0);
  }
}

int run_diff(const Args& args) {
  const std::vector<ParsedTrace> a = load_run(args.positional[0]);
  if (a.empty()) {
    return 2;
  }
  const std::vector<ParsedTrace> b = load_run(args.positional[1]);
  if (b.empty()) {
    return 2;
  }
  const auto max_deltas = static_cast<std::size_t>(
      args.has("--max-deltas") ? args.number("--max-deltas") : 10);
  const TraceDiff diff = diff_traces(a, b);
  std::size_t divergent = 0;
  for (const CellDiff& cell : diff.cells) {
    if (!cell.identical) {
      ++divergent;
    }
    print_cell(cell, max_deltas);
  }
  std::printf("%zu cell(s) compared, %zu divergent: runs are %s\n",
              diff.cells.size(), divergent,
              diff.identical ? "IDENTICAL" : "DIVERGENT");
  return diff.identical ? 0 : 1;
}

// ---- dispatch ---------------------------------------------------------------

/// argv[2..] against one subcommand's flags: a flag in `valued` takes the
/// next argument, one in `switches` takes none. nullopt (after saying why
/// for a bad flag) on an unknown flag, a missing value or a positional
/// count other than `positionals`.
std::optional<Args> parse_args(int argc, char** argv, std::size_t positionals,
                               const std::set<std::string>& valued,
                               const std::set<std::string>& switches) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
    } else if (switches.count(arg) != 0) {
      args.options[arg] = "";
    } else if (valued.count(arg) == 0) {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return std::nullopt;
    } else if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
      return std::nullopt;
    } else {
      args.options[arg] = argv[++i];
    }
  }
  if (args.positional.size() != positionals) {
    return std::nullopt;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  std::optional<Args> args;
  if (command == "dump" &&
      (args = parse_args(argc, argv, 1, {"--layer", "--stream", "--load"},
                         {"--events", "--waterfall"}))) {
    return run_dump(*args);
  }
  if (command == "metrics" &&
      (args = parse_args(argc, argv, 1, {}, {"--csv"}))) {
    return run_metrics(*args);
  }
  if (command == "export" && (args = parse_args(argc, argv, 2, {}, {}))) {
    return run_export(*args);
  }
  if (command == "diff" &&
      (args = parse_args(argc, argv, 2, {"--max-deltas"}, {}))) {
    return run_diff(*args);
  }
  std::fprintf(stderr,
               "usage: %s dump <cell.csv> [--layer NAME] [--stream N] "
               "[--load N] [--events] [--waterfall]\n"
               "       %s metrics <cell.csv> [--csv]\n"
               "       %s export chrome|har <cell.csv>\n"
               "       %s diff <a> <b> [--max-deltas N]\n",
               argv[0], argv[0], argv[0], argv[0]);
  return 2;
}
