#include "gate/bench_gate.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"
#include "util/statistics.hpp"

namespace mahimahi::gate {
namespace {

using util::append;
using util::Escaped;
using util::Fixed;
using util::fmt;
using util::JsonValue;

double number_field(const JsonValue& object, const std::string& key,
                    double fallback) {
  const JsonValue* field = object.find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (field->type != JsonValue::Type::kNumber) {
    throw std::invalid_argument{"field '" + key + "' must be a number"};
  }
  return field->number;
}

std::vector<BenchRow> rows_from(const JsonValue& root,
                                const char* expected_schema) {
  if (root.type != JsonValue::Type::kObject) {
    throw std::invalid_argument{"top level must be a JSON object"};
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString ||
      schema->string != expected_schema) {
    throw std::invalid_argument{std::string{"expected schema \""} +
                                expected_schema + "\""};
  }
  const JsonValue* benchmarks = root.find("benchmarks");
  if (benchmarks == nullptr || benchmarks->type != JsonValue::Type::kArray) {
    throw std::invalid_argument{"missing \"benchmarks\" array"};
  }
  std::vector<BenchRow> rows;
  rows.reserve(benchmarks->array.size());
  for (const JsonValue& entry : benchmarks->array) {
    if (entry.type != JsonValue::Type::kObject) {
      throw std::invalid_argument{"benchmark entries must be objects"};
    }
    const JsonValue* name = entry.find("name");
    if (name == nullptr || name->type != JsonValue::Type::kString ||
        name->string.empty()) {
      throw std::invalid_argument{"benchmark entry without a \"name\""};
    }
    BenchRow row;
    row.name = name->string;
    row.ns_per_op = number_field(entry, "ns_per_op", 0);
    row.items_per_second = number_field(entry, "items_per_second", 0);
    row.bytes_per_second = number_field(entry, "bytes_per_second", 0);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Read `path` and parse it with `parse`; every error names the path.
template <typename Parse>
auto load_file(const std::string& path, Parse parse) {
  try {
    std::ifstream in{path, std::ios::binary};
    if (!in) {
      throw std::invalid_argument{"cannot open file"};
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    return parse(contents.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{path + ": " + e.what()};
  }
}

/// One metric comparison; `lower_is_better` encodes the direction.
void compare_metric(GateResult& result, const std::string& row_name,
                    const char* metric, double base, double current,
                    double tolerance, bool lower_is_better) {
  if (base == 0) {
    return;  // metric not pinned by the baseline
  }
  MetricDelta delta;
  delta.row = row_name;
  delta.metric = metric;
  delta.baseline = base;
  delta.current = current;
  delta.change_pct = 100.0 * (current - base) / base;
  delta.tolerance = std::fabs(tolerance);
  const double relative = (current - base) / base;
  const bool informational = tolerance < 0;
  const bool worse = lower_is_better ? relative > delta.tolerance
                                     : relative < -delta.tolerance;
  const bool better = lower_is_better ? relative < -delta.tolerance
                                      : relative > delta.tolerance;
  if (informational) {
    delta.status = MetricStatus::kInfo;
  } else if (worse) {
    delta.status = MetricStatus::kRegressed;
    ++result.regressions;
  } else if (better) {
    delta.status = MetricStatus::kImproved;
  } else {
    delta.status = MetricStatus::kOk;
  }
  result.deltas.push_back(std::move(delta));
}

/// The one delta of a row only one side has: pinned but not measured
/// (kMissing) or measured but not pinned (kNew, carrying its ns_per_op).
/// Built in one initialization rather than by assigning members, which
/// also keeps GCC 12's -Wrestrict false positive on a short string
/// assignment out of -Werror builds.
MetricDelta unmatched_row(const std::string& row, MetricStatus status,
                          double current) {
  return MetricDelta{row, "-", 0, current, 0, 0, status};
}

const char* status_name(MetricStatus status) {
  switch (status) {
    case MetricStatus::kOk: return "ok";
    case MetricStatus::kImproved: return "IMPROVED";
    case MetricStatus::kRegressed: return "REGRESSED";
    case MetricStatus::kInfo: return "info";
    case MetricStatus::kMissing: return "MISSING";
    case MetricStatus::kNew: return "new";
  }
  return "?";
}

}  // namespace

std::vector<BenchRow> parse_bench_json(std::string_view text) {
  return rows_from(util::parse_json(text), "mahimahi-bench-v1");
}

std::vector<BenchRow> load_bench_file(const std::string& path) {
  return load_file(path, parse_bench_json);
}

Baseline parse_baseline_json(std::string_view text) {
  const JsonValue root = util::parse_json(text);
  Baseline baseline;
  baseline.rows = rows_from(root, "mahimahi-bench-baseline-v1");
  baseline.default_tolerance =
      number_field(root, "default_tolerance", baseline.default_tolerance);
  if (baseline.default_tolerance <= 0) {
    throw std::invalid_argument{"default_tolerance must be positive"};
  }
  if (const JsonValue* tolerances = root.find("tolerances");
      tolerances != nullptr) {
    if (tolerances->type != JsonValue::Type::kObject) {
      throw std::invalid_argument{"\"tolerances\" must be an object"};
    }
    for (const auto& [name, value] : tolerances->object) {
      if (value.type != JsonValue::Type::kNumber) {
        throw std::invalid_argument{"tolerance for '" + name +
                                    "' must be a number"};
      }
      baseline.tolerances.emplace(name, value.number);
    }
  }
  return baseline;
}

Baseline load_baseline_file(const std::string& path) {
  return load_file(path, parse_baseline_json);
}

std::optional<Baseline> load_existing_baseline(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) {
    return std::nullopt;
  }
  return load_baseline_file(path);
}

std::string make_baseline_json(const Baseline& baseline) {
  std::string out;
  append(out, "{\n  \"schema\": \"mahimahi-bench-baseline-v1\",\n",
         "  \"default_tolerance\": ", Fixed{baseline.default_tolerance, 3},
         ",\n  \"tolerances\": {");
  bool first = true;
  for (const auto& [name, tolerance] : baseline.tolerances) {
    append(out, first ? "\n" : ",\n", "    \"", Escaped{name}, "\": ",
           Fixed{tolerance, 3});
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"benchmarks\": [";
  for (std::size_t i = 0; i < baseline.rows.size(); ++i) {
    const BenchRow& row = baseline.rows[i];
    append(out, i == 0 ? "\n" : ",\n", "    {\"name\": \"", Escaped{row.name},
           "\", \"ns_per_op\": ", Fixed{row.ns_per_op, 1},
           ", \"items_per_second\": ", Fixed{row.items_per_second, 1},
           ", \"bytes_per_second\": ", Fixed{row.bytes_per_second, 1}, "}");
  }
  out += "\n  ]\n}\n";
  return out;
}

GateResult check(const Baseline& baseline,
                 const std::vector<BenchRow>& current) {
  std::map<std::string, const BenchRow*> measured;
  for (const BenchRow& row : current) {
    measured.emplace(row.name, &row);
  }
  GateResult result;
  for (const BenchRow& pinned : baseline.rows) {
    const auto tolerance_it = baseline.tolerances.find(pinned.name);
    const double tolerance = tolerance_it != baseline.tolerances.end()
                                 ? tolerance_it->second
                                 : baseline.default_tolerance;
    const auto it = measured.find(pinned.name);
    if (it == measured.end()) {
      result.deltas.push_back(
          unmatched_row(pinned.name, MetricStatus::kMissing, 0));
      ++result.missing;
      continue;
    }
    const BenchRow& now = *it->second;
    compare_metric(result, pinned.name, "ns_per_op", pinned.ns_per_op,
                   now.ns_per_op, tolerance, /*lower_is_better=*/true);
    compare_metric(result, pinned.name, "items_per_second",
                   pinned.items_per_second, now.items_per_second, tolerance,
                   /*lower_is_better=*/false);
    compare_metric(result, pinned.name, "bytes_per_second",
                   pinned.bytes_per_second, now.bytes_per_second, tolerance,
                   /*lower_is_better=*/false);
    measured.erase(it);
  }
  // Rows measured but not pinned: informational, prompting a refresh.
  for (const auto& [name, row] : measured) {
    result.deltas.push_back(
        unmatched_row(name, MetricStatus::kNew, row->ns_per_op));
  }
  return result;
}

std::string format_delta_table(const GateResult& result) {
  std::vector<std::vector<std::string>> cells;
  cells.push_back({"benchmark", "metric", "baseline", "current", "change",
                   "band", "verdict"});
  for (const MetricDelta& delta : result.deltas) {
    std::vector<std::string> row;
    row.push_back(delta.row);
    row.push_back(delta.metric);
    if (delta.status == MetricStatus::kMissing) {
      row.insert(row.end(), {"-", "(not measured)", "-", "-"});
    } else if (delta.status == MetricStatus::kNew) {
      row.insert(row.end(), {"(not pinned)", "-", "-", "-"});
    } else {
      row.push_back(fmt(delta.baseline, 1));
      row.push_back(fmt(delta.current, 1));
      row.push_back((delta.change_pct >= 0 ? "+" : "") +
                    fmt(delta.change_pct, 2) + "%");
      row.push_back("+-" + fmt(delta.tolerance * 100.0, 0) + "%");
    }
    row.push_back(status_name(delta.status));
    cells.push_back(std::move(row));
  }
  return util::render_table(cells);
}

}  // namespace mahimahi::gate
