#include "obs/analyze.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace mahimahi::obs {
namespace {

constexpr std::string_view kMagic = "# mahimahi-obs-trace-v1";
constexpr std::size_t kColumns = 10;

/// Read the RFC 4180-quoted value that opens at text[pos] (a '"') into
/// `out` and leave pos just past its closing quote. false = the quote is
/// still open at the end of `text`.
bool read_quoted(const std::string& text, std::size_t& pos, std::string& out) {
  std::size_t from = pos + 1;
  while (true) {
    const std::size_t quote = text.find('"', from);
    if (quote == std::string::npos) {
      return false;
    }
    out.append(text, from, quote - from);
    if (quote + 1 < text.size() && text[quote + 1] == '"') {
      out += '"';
      from = quote + 2;
      continue;
    }
    pos = quote + 1;
    return true;
  }
}

/// How splitting one record went. kOpen: a quoted value is still open at
/// the end of the record — it holds a line break, so the record goes on
/// in the next line.
enum class Split { kDone, kOpen, kMalformed };

/// Split a row into its kColumns cells, unquoting quoted ones. An unquoted
/// last cell runs to the end of the row, commas included.
Split split_row(const std::string& row, std::vector<std::string>& cells) {
  cells.clear();
  std::size_t pos = 0;
  while (true) {
    const bool last = cells.size() + 1 == kColumns;
    std::string cell;
    if (pos < row.size() && row[pos] == '"') {
      if (!read_quoted(row, pos, cell)) {
        return Split::kOpen;
      }
    } else {
      const std::size_t end = last ? std::string::npos : row.find(',', pos);
      const std::size_t stop = end == std::string::npos ? row.size() : end;
      cell.assign(row, pos, stop - pos);
      pos = stop;
    }
    cells.push_back(std::move(cell));
    if (pos == row.size()) {
      return cells.size() == kColumns ? Split::kDone : Split::kMalformed;
    }
    if (last || row[pos] != ',') {
      return Split::kMalformed;
    }
    ++pos;
  }
}

/// The header's " key=value" pairs after the magic: a value runs to the
/// next space unless it is quoted.
Split split_header(const std::string& header,
                   std::map<std::string, std::string>& fields) {
  std::size_t pos = kMagic.size();
  while (pos < header.size()) {
    const std::size_t equals = header.find('=', pos);
    if (header[pos] != ' ' || equals == std::string::npos) {
      return Split::kMalformed;
    }
    std::string& value = fields[header.substr(pos + 1, equals - pos - 1)];
    value.clear();
    pos = equals + 1;
    if (pos < header.size() && header[pos] == '"') {
      if (!read_quoted(header, pos, value)) {
        return Split::kOpen;
      }
    } else {
      const std::size_t end = std::min(header.find(' ', pos), header.size());
      value.assign(header, pos, end - pos);
      pos = end;
    }
  }
  return Split::kDone;
}

/// Whether `line`, read while a quoted value is open, closes it: holds a
/// quote that is not half of a doubled one.
bool closes_quote(std::string_view line) {
  for (std::size_t quote = line.find('"'); quote != std::string_view::npos;
       quote = line.find('"', quote + 2)) {
    if (quote + 1 == line.size() || line[quote + 1] != '"') {
      return true;
    }
  }
  return false;
}

/// Read one record into `record`: one line, plus the lines after it while
/// `split` reports a quoted value still open. false at end of input;
/// otherwise `result` is the record's split, kOpen when the input ended
/// inside a quoted value. The record is split again only when a line
/// closes its open value; each such split ends the record or opens a later
/// cell, so a record is split at most once per cell and a stray quote
/// costs one pass over the input, not one split per line.
template <typename SplitFn>
bool read_record(std::istream& in, std::string& record, Split& result,
                 SplitFn split) {
  if (!std::getline(in, record)) {
    return false;
  }
  result = split(record);
  std::string more;
  while (result == Split::kOpen && std::getline(in, more)) {
    record += '\n';
    record += more;
    if (closes_quote(more)) {
      result = split(record);
    }
  }
  return true;
}

/// Parse all of `text` as a number; false when it is not one or bytes are
/// left over.
template <typename Number>
bool parse_whole(std::string_view text, Number& out) {
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc{} && stop == end;
}

/// `text` as a number, or `fallback` when it is not one (an absent value).
template <typename Number>
Number parse_or(std::string_view text, Number fallback) {
  Number value{};
  return parse_whole(text, value) ? value : fallback;
}

void fail(std::string* error, const std::string& reason) {
  if (error != nullptr) {
    *error = reason;
  }
}

}  // namespace

std::string detail_field(const std::string& detail, const std::string& key) {
  std::size_t pos = 0;
  while (pos < detail.size()) {
    const std::size_t stop = detail.find_first_of("=;", pos);
    if (stop == std::string::npos) {
      break;
    }
    if (detail[stop] == ';') {  // an item without a value
      pos = stop + 1;
      continue;
    }
    const bool wanted = detail.compare(pos, stop - pos, key) == 0;
    pos = stop + 1;
    std::string value;
    if (pos < detail.size() && detail[pos] == '"') {
      if (!read_quoted(detail, pos, value)) {
        value.assign(detail, pos);  // unterminated: the rest, as written
        pos = detail.size();
      }
    } else {
      pos = std::min(detail.find(';', pos), detail.size());
      value.assign(detail, stop + 1, pos - stop - 1);
    }
    if (wanted) {
      return value;
    }
    pos = detail.find(';', pos);
    if (pos == std::string::npos) {
      break;
    }
    ++pos;
  }
  return "";
}

std::int64_t detail_us(const std::string& detail, const std::string& key) {
  const std::string text = detail_field(detail, key);
  return text.empty() ? -1 : std::atoll(text.c_str());
}

std::optional<ParsedTrace> parse_trace_csv(std::istream& in,
                                           std::string* error) {
  ParsedTrace trace;
  std::string header;
  std::map<std::string, std::string> fields;
  Split split = Split::kMalformed;
  if (!read_record(in, header, split,
                   [&](const std::string& text) {
                     return text.rfind(kMagic, 0) == 0
                                ? split_header(text, fields)
                                : Split::kMalformed;
                   }) ||
      split != Split::kDone) {
    fail(error, "not a mahimahi-obs-trace-v1 CSV");
    return std::nullopt;
  }
  trace.experiment = fields["experiment"];
  trace.cell_label = fields["label"];
  trace.cell_index = parse_or(fields["cell"], -1);
  trace.seed = parse_or<std::uint64_t>(fields["seed"], 0);

  std::string columns;
  std::getline(in, columns);  // "load,session,t_us,..."

  std::string line;
  std::vector<std::string> cells;
  while (read_record(in, line, split, [&](const std::string& text) {
    return text.empty() ? Split::kDone : split_row(text, cells);
  })) {
    if (line.empty()) {
      continue;
    }
    if (split != Split::kDone) {
      fail(error, "malformed row: " + line.substr(0, line.find('\n')));
      return std::nullopt;
    }
    TraceRow row;
    if (!parse_whole(cells[0], row.load) ||
        !parse_whole(cells[1], row.session) ||
        !parse_whole(cells[2], row.t_us) ||
        !parse_whole(cells[5], row.flow) ||
        !parse_whole(cells[6], row.value) ||
        !parse_whole(cells[7], row.metric)) {
      fail(error, "malformed number in row: " + line);
      return std::nullopt;
    }
    row.layer = std::move(cells[3]);
    row.kind = std::move(cells[4]);
    row.label = std::move(cells[8]);
    row.detail = std::move(cells[9]);
    row.raw = std::move(line);
    trace.rows.push_back(std::move(row));
  }
  return trace;
}

std::optional<ParsedTrace> parse_trace_file(const std::string& path,
                                            std::string* error) {
  std::ifstream in{path};
  if (!in) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  return parse_trace_csv(in, error);
}

TraceMeta to_trace_meta(const ParsedTrace& trace) {
  return TraceMeta{trace.experiment, trace.cell_label, trace.cell_index,
                   trace.seed};
}

std::vector<LoadTrace> to_load_traces(const ParsedTrace& trace) {
  std::vector<LoadTrace> loads;
  const auto buffer_for = [&](int load_index) -> TraceBuffer& {
    if (loads.empty() || loads.back().load_index != load_index) {
      loads.push_back(LoadTrace{load_index, TraceBuffer{}});
    }
    return loads.back().buffer;
  };
  for (const TraceRow& row : trace.rows) {
    TraceBuffer& buffer = buffer_for(row.load);
    if (row.layer == "browser" && row.kind == "object") {
      ObjectRecord o;
      o.url = row.label;
      o.kind = detail_field(row.detail, "kind");
      o.session = row.session;
      o.fetch_start = row.t_us;
      o.dns_start = detail_us(row.detail, "dns_start_us");
      o.dns_done = detail_us(row.detail, "dns_done_us");
      o.connect_done = detail_us(row.detail, "connect_us");
      o.request_sent = detail_us(row.detail, "request_us");
      o.first_byte = detail_us(row.detail, "first_byte_us");
      o.complete = detail_us(row.detail, "complete_us");
      o.bytes = row.value;
      o.status = parse_or<std::uint32_t>(detail_field(row.detail, "status"), 0);
      o.attempts =
          parse_or<std::uint32_t>(detail_field(row.detail, "attempts"), 1);
      o.failed = detail_field(row.detail, "failed") == "1";
      o.error = detail_field(row.detail, "error");
      buffer.objects.push_back(std::move(o));
      continue;
    }
    if (row.layer == "browser" && row.kind == "page") {
      PageRecord p;
      p.session = row.session;
      p.url = row.label;
      p.started_at = row.t_us;
      p.plt = std::llround(row.metric * 1000.0);
      p.degraded_plt = std::llround(
          parse_or(detail_field(row.detail, "degraded_ms"), 0.0) * 1000.0);
      p.success = row.value != 0;
      buffer.pages.push_back(std::move(p));
      continue;
    }
    TraceEvent e;
    e.at = row.t_us;
    if (!layer_from_string(row.layer, e.layer) ||
        !kind_from_string(row.kind, e.kind)) {
      // An empty-load row only opens its load (above); a future
      // layer/kind is skipped rather than misclassified.
      continue;
    }
    e.session = row.session;
    e.flow = row.flow;
    e.value = row.value;
    e.metric = row.metric;
    e.label = row.label;
    buffer.events.push_back(std::move(e));
  }
  return loads;
}

std::string render_waterfall(const std::vector<TraceRow>& rows) {
  constexpr int kWidth = 64;
  std::string out;
  char line[256];
  std::vector<const TraceRow*> objects;
  std::int64_t max_us = 1;
  // Axis extent: every object's last recorded timestamp (not just
  // completions — an early-failing object still occupies its span) and
  // every page's end.
  const auto last_known = [](const TraceRow& row) {
    std::int64_t end = row.t_us;
    for (const char* key : {"dns_start_us", "dns_done_us", "connect_us",
                            "request_us", "first_byte_us", "complete_us"}) {
      end = std::max(end, detail_us(row.detail, key));
    }
    return end;
  };
  for (const TraceRow& row : rows) {
    if (row.layer == "browser" && row.kind == "object") {
      objects.push_back(&row);
      max_us = std::max(max_us, last_known(row));
    } else if (row.layer == "browser" && row.kind == "page") {
      max_us = std::max(
          max_us, row.t_us + static_cast<std::int64_t>(row.metric * 1000.0));
    }
  }
  if (objects.empty()) {
    return "no objects match the filter\n";
  }
  std::stable_sort(objects.begin(), objects.end(),
                   [](const TraceRow* a, const TraceRow* b) {
                     if (a->load != b->load) {
                       return a->load < b->load;
                     }
                     if (a->session != b->session) {
                       return a->session < b->session;
                     }
                     return a->t_us < b->t_us;
                   });

  const auto col = [&](std::int64_t t_us) {
    const std::int64_t c = t_us * kWidth / max_us;
    return static_cast<int>(std::min<std::int64_t>(c, kWidth - 1));
  };
  std::snprintf(line, sizeof line,
                "time axis: 0 .. %.1f ms  (%d columns; '.' queued  '-' dns  "
                "'+' connect  '=' request  '#' receive  '!' failed)\n",
                static_cast<double>(max_us) / 1e3, kWidth);
  out += line;
  for (const TraceRow* object : objects) {
    const std::int64_t start = object->t_us;
    const std::int64_t dns_start = detail_us(object->detail, "dns_start_us");
    const std::int64_t dns_done = detail_us(object->detail, "dns_done_us");
    const std::int64_t connect = detail_us(object->detail, "connect_us");
    const std::int64_t request = detail_us(object->detail, "request_us");
    const std::int64_t first_byte =
        detail_us(object->detail, "first_byte_us");
    const bool failed = detail_field(object->detail, "failed") == "1";
    const std::int64_t end = std::max(start, last_known(*object));

    // Column i shows the phase in progress at the column's start instant
    // (clamped into the object's span). Deciding each column independently
    // — instead of painting phase intervals over each other — means a
    // zero-duration phase cannot blot out its successor, it just claims no
    // column.
    const auto phase_at = [&](std::int64_t t) {
      if (first_byte >= 0 && t >= first_byte) {
        return '#';
      }
      if (request >= 0 && t >= request) {
        return '=';
      }
      if (dns_start >= 0 && t >= dns_start &&
          (dns_done < 0 || t < dns_done)) {
        return '-';
      }
      if (connect >= 0 && t < connect && (dns_done < 0 || t >= dns_done)) {
        return '+';
      }
      return '.';
    };
    std::string bar(kWidth, ' ');
    const int from = std::clamp(col(start), 0, kWidth - 1);
    const int to = std::clamp(std::max(col(end), from), 0, kWidth - 1);
    for (int i = from; i <= to; ++i) {
      const std::int64_t t =
          std::max(start, static_cast<std::int64_t>(i) * max_us / kWidth);
      bar[static_cast<std::size_t>(i)] = phase_at(t);
    }
    if (failed) {
      bar[static_cast<std::size_t>(to)] = '!';
    }

    std::string name = object->label;
    if (name.size() > 36) {
      name = "..." + name.substr(name.size() - 33);
    }
    const std::string attempts = detail_field(object->detail, "attempts");
    std::snprintf(line, sizeof line, "%2d/%-3d %-36s |%s| %8.1f ms%s%s\n",
                  object->load, object->session, name.c_str(), bar.c_str(),
                  static_cast<double>(end - start) / 1e3,
                  attempts != "1" && !attempts.empty()
                      ? (" x" + attempts).c_str()
                      : "",
                  failed ? "  FAILED" : "");
    out += line;
  }
  return out;
}

namespace {

/// Snapshot flattened to name → value, so counter/gauge/histogram deltas
/// rank on one scale.
std::map<std::string, double> flatten(const MetricsSnapshot& snap) {
  std::map<std::string, double> flat;
  for (const auto& [name, value] : snap.counters) {
    flat[name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    flat[name] = value;
  }
  for (const auto& [name, h] : snap.histograms) {
    flat[name + ".count"] = static_cast<double>(h.count);
    flat[name + ".sum"] = h.sum;
    flat[name + ".p50"] = h.p50;
    flat[name + ".p99"] = h.p99;
    flat[name + ".max"] = h.max;
  }
  return flat;
}

CellDiff diff_cell(const ParsedTrace& a, const ParsedTrace& b) {
  CellDiff diff;
  diff.label = a.cell_label;

  // Divergence localization: first raw-line mismatch (the exact relation
  // a byte-compare of the two files would trip on, minus the header).
  const std::size_t common = std::min(a.rows.size(), b.rows.size());
  std::size_t divergence = common;
  for (std::size_t i = 0; i < common; ++i) {
    if (a.rows[i].raw != b.rows[i].raw) {
      divergence = i;
      break;
    }
  }
  if (divergence == common && a.rows.size() == b.rows.size()) {
    diff.identical = true;
    return diff;
  }
  diff.first_divergence = divergence;
  const TraceRow* witness = nullptr;
  if (divergence < a.rows.size()) {
    diff.a_line = a.rows[divergence].raw;
    witness = &a.rows[divergence];
  }
  if (divergence < b.rows.size()) {
    diff.b_line = b.rows[divergence].raw;
    if (witness == nullptr) {
      witness = &b.rows[divergence];
    }
  }
  if (witness != nullptr) {
    diff.layer = witness->layer;
    diff.kind = witness->kind;
    diff.t_us = witness->t_us;
    diff.flow = witness->flow;
  }

  std::map<std::string, std::pair<std::int64_t, std::int64_t>> counts;
  for (const TraceRow& row : a.rows) {
    ++counts[row.layer + "." + row.kind].first;
  }
  for (const TraceRow& row : b.rows) {
    ++counts[row.layer + "." + row.kind].second;
  }
  for (const auto& [key, pair] : counts) {
    if (pair.first != pair.second) {
      diff.count_deltas.push_back(
          CellDiff::CountDelta{key, pair.first, pair.second});
    }
  }
  std::stable_sort(diff.count_deltas.begin(), diff.count_deltas.end(),
                   [](const CellDiff::CountDelta& x,
                      const CellDiff::CountDelta& y) {
                     const std::int64_t dx = x.a > x.b ? x.a - x.b : x.b - x.a;
                     const std::int64_t dy = y.a > y.b ? y.a - y.b : y.b - y.a;
                     return dx > dy;
                   });

  const std::map<std::string, double> metrics_a =
      flatten(derive_cell_metrics(to_load_traces(a)));
  const std::map<std::string, double> metrics_b =
      flatten(derive_cell_metrics(to_load_traces(b)));
  std::map<std::string, std::pair<double, double>> merged;
  for (const auto& [name, value] : metrics_a) {
    merged[name].first = value;
  }
  for (const auto& [name, value] : metrics_b) {
    merged[name].second = value;
  }
  for (const auto& [name, pair] : merged) {
    if (pair.first == pair.second) {
      continue;
    }
    const double magnitude =
        std::max({pair.first < 0 ? -pair.first : pair.first,
                  pair.second < 0 ? -pair.second : pair.second, 1e-12});
    const double relative = (pair.second - pair.first) / magnitude;
    diff.metric_deltas.push_back(
        CellDiff::MetricDelta{name, pair.first, pair.second, relative});
  }
  std::stable_sort(
      diff.metric_deltas.begin(), diff.metric_deltas.end(),
      [](const CellDiff::MetricDelta& x, const CellDiff::MetricDelta& y) {
        const double rx = x.relative < 0 ? -x.relative : x.relative;
        const double ry = y.relative < 0 ? -y.relative : y.relative;
        return rx > ry;
      });
  return diff;
}

}  // namespace

TraceDiff diff_traces(const std::vector<ParsedTrace>& a,
                      const std::vector<ParsedTrace>& b) {
  TraceDiff diff;
  std::map<std::string, const ParsedTrace*> b_by_label;
  for (const ParsedTrace& trace : b) {
    b_by_label.emplace(trace.cell_label, &trace);
  }
  for (const ParsedTrace& trace : a) {
    const auto it = b_by_label.find(trace.cell_label);
    if (it == b_by_label.end()) {
      CellDiff missing;
      missing.label = trace.cell_label;
      missing.in_b = false;
      diff.cells.push_back(std::move(missing));
      diff.identical = false;
      continue;
    }
    CellDiff cell = diff_cell(trace, *it->second);
    diff.identical = diff.identical && cell.identical;
    diff.cells.push_back(std::move(cell));
    b_by_label.erase(it);
  }
  for (const ParsedTrace& trace : b) {
    if (b_by_label.count(trace.cell_label) != 0) {
      CellDiff missing;
      missing.label = trace.cell_label;
      missing.in_a = false;
      diff.cells.push_back(std::move(missing));
      diff.identical = false;
    }
  }
  return diff;
}

}  // namespace mahimahi::obs
