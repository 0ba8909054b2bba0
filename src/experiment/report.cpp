#include "experiment/report.hpp"

#include <array>
#include <cmath>
#include <optional>

#include "util/json.hpp"

namespace mahimahi::experiment {
namespace {

using util::append;
using util::Escaped;
using util::Fixed;

/// The five PLT summary statistics (0 for an empty sample set), in the
/// column order both the JSON and the CSV use.
std::array<double, 5> plt_summary(const util::Samples& plt) {
  if (plt.empty()) {
    return {0, 0, 0, 0, 0};
  }
  return {plt.median(), plt.mean(), plt.percentile(95), plt.min(), plt.max()};
}

void append_samples(std::string& out, const util::Samples& samples) {
  out += "[";
  const auto& values = samples.values();
  for (std::size_t j = 0; j < values.size(); ++j) {
    append(out, j == 0 ? "" : ", ", Fixed{values[j]});
  }
  out += "]";
}

/// A single-cell claim statistic, or nullopt when the cell measured
/// nothing it could be read from: no PLT samples or, for a probe
/// statistic, no probe.
std::optional<double> statistic(Claim::Stat stat, const CellResult& cell) {
  const util::Samples& plt = cell.plt_ms;
  const bool probe_stat =
      stat == Claim::Stat::kQueueP95 || stat == Claim::Stat::kThroughput;
  if (probe_stat ? !cell.probe_ran : plt.empty()) {
    return std::nullopt;
  }
  switch (stat) {
    case Claim::Stat::kQueueP95:
      return cell.queue_delay_p95_ms;
    case Claim::Stat::kThroughput: {
      double bps = 0;
      for (const FlowResult& flow : cell.flows) {
        bps += flow.throughput_bps;
      }
      return bps / 1e6;
    }
    case Claim::Stat::kMean:
      return plt.mean();
    case Claim::Stat::kP95:
      return plt.percentile(95);
    case Claim::Stat::kCv:
      return 100.0 * plt.stddev() / plt.mean();
    case Claim::Stat::kObjectsFailed:
      return static_cast<double>(cell.objects_failed);
    case Claim::Stat::kFailedLoads:
      return static_cast<double>(cell.failed_loads);
    case Claim::Stat::kRetries:
      return static_cast<double>(cell.retries);
    default:
      return plt.median();
  }
}

ClaimResult::Unit unit_of(const Claim& claim) {
  if (claim.stat == Claim::Stat::kCv || !claim.vs.empty()) {
    return ClaimResult::Unit::kPercent;
  }
  switch (claim.stat) {
    case Claim::Stat::kThroughput:
      return ClaimResult::Unit::kMbps;
    case Claim::Stat::kObjectsFailed:
    case Claim::Stat::kFailedLoads:
    case Claim::Stat::kRetries:
      return ClaimResult::Unit::kCount;
    default:
      return ClaimResult::Unit::kMs;
  }
}

}  // namespace

const char* ClaimResult::status_name() const {
  switch (status) {
    case Status::kPass:
      return "pass";
    case Status::kFail:
      return "fail";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kSkipped:
      break;
  }
  return "skipped";
}

ClaimResult evaluate_claim(const Claim& claim, const CellResult* cell,
                           const CellResult* vs) {
  ClaimResult result;
  result.name = claim.name;
  result.text = claim.text();
  result.unit = unit_of(claim);
  if (cell == nullptr || (!claim.vs.empty() && vs == nullptr)) {
    return result;  // skipped: not in this shard
  }
  bool valid = false;
  if (claim.paired()) {
    // Per-load % differences: load k of both cells replays the same page.
    const auto& a = cell->plt_ms.values();
    const auto& b = vs->plt_ms.values();
    valid = !a.empty() && a.size() == b.size();
    util::Samples diffs;
    for (std::size_t k = 0; valid && k < a.size(); ++k) {
      valid = b[k] > 0;
      if (valid) {
        diffs.add(util::percent_difference(b[k], a[k]));
      }
    }
    if (valid) {
      result.value = diffs.percentile(
          claim.stat == Claim::Stat::kPairedP95 ? 95 : 50);
    }
  } else if (const std::optional<double> value =
                 statistic(claim.stat, *cell)) {
    result.value = *value;
    valid = true;
    if (vs != nullptr) {
      const std::optional<double> base = statistic(claim.stat, *vs);
      valid = base.has_value() && *base > 0;
      if (valid) {
        result.value = util::percent_difference(*base, result.value);
      }
    }
  }
  if (!valid) {
    result.value = 0;
    result.status = ClaimResult::Status::kFail;
    return result;
  }
  bool holds = true;
  switch (claim.bound) {
    case Claim::Bound::kNone:
      result.status = ClaimResult::Status::kUnbounded;
      return result;
    case Claim::Bound::kAtMost:
      holds = result.value <= claim.limit;
      break;
    case Claim::Bound::kAtLeast:
      holds = result.value >= claim.limit;
      break;
    case Claim::Bound::kBelow:
      holds = result.value < claim.limit;
      break;
    case Claim::Bound::kAbove:
      holds = result.value > claim.limit;
      break;
    case Claim::Bound::kWithin:
      holds = std::abs(result.value) <= claim.limit;
      break;
  }
  result.status =
      holds ? ClaimResult::Status::kPass : ClaimResult::Status::kFail;
  return result;
}

std::string Report::to_json() const {
  std::string out = "{\n  \"schema\": \"mahimahi-experiment-v1\",\n";
  append(out, "  \"name\": \"", Escaped{name}, "\",\n");
  append(out, "  \"seed\": ", seed, ",\n");
  append(out, "  \"loads_per_cell\": ", loads_per_cell, ",\n");
  append(out, "  \"total_cells\": ", total_cells, ",\n");
  append(out, "  \"shard\": \"", shard_index, "/", shard_count, "\",\n");
  if (interrupted) {
    out += "  \"interrupted\": true,\n";
  }
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    append(out, i == 0 ? "\n" : ",\n", "    {\"index\": ", cell.index);
    append(out, ", \"site\": \"", Escaped{cell.site}, "\"");
    append(out, ", \"protocol\": \"", Escaped{cell.protocol}, "\"");
    append(out, ", \"shell\": \"", Escaped{cell.shell}, "\"");
    append(out, ", \"queue\": \"", Escaped{cell.queue}, "\"");
    append(out, ", \"cc\": \"", Escaped{cell.cc}, "\"");
    append(out, ", \"fleet\": \"", Escaped{cell.fleet}, "\"");
    append(out, ", \"fleet_sessions\": ", cell.fleet_sessions);
    if (fault_axis) {
      append(out, ", \"fault\": \"", Escaped{cell.fault}, "\"");
    }
    if (interrupted) {
      append(out, ", \"loads_done\": ", cell.loads_done);
      append(out, ", \"loads_expected\": ", cell.loads_expected);
    }
    append(out, ", \"failed_loads\": ", cell.failed_loads);
    const std::array<double, 5> plt = plt_summary(cell.plt_ms);
    append(out, ", \"plt_median_ms\": ", Fixed{plt[0]});
    append(out, ", \"plt_mean_ms\": ", Fixed{plt[1]});
    append(out, ", \"plt_p95_ms\": ", Fixed{plt[2]});
    append(out, ", \"plt_min_ms\": ", Fixed{plt[3]});
    append(out, ", \"plt_max_ms\": ", Fixed{plt[4]});
    out += ", \"plt_ms\": ";
    append_samples(out, cell.plt_ms);
    if (fault_axis) {
      append(out, ", \"objects_failed\": ", cell.objects_failed);
      append(out, ", \"retries\": ", cell.retries);
      append(out, ", \"timeouts\": ", cell.timeouts);
      const util::Samples& deg = cell.degraded_plt_ms;
      append(out, ", \"degraded_plt_median_ms\": ",
             Fixed{deg.empty() ? 0 : deg.median()});
      out += ", \"degraded_plt_ms\": ";
      append_samples(out, deg);
    }
    // Worker-task failures surface in any report (fault axis or not);
    // healthy runs have none, so the key's absence keeps them byte-stable.
    if (!cell.load_errors.empty()) {
      out += ", \"load_errors\": [";
      for (std::size_t j = 0; j < cell.load_errors.size(); ++j) {
        append(out, j == 0 ? "\"" : ", \"", Escaped{cell.load_errors[j]},
               "\"");
      }
      out += "]";
    }
    if (cell.probe_ran) {
      append(out, ", \"probe\": {\"queue_delay_p95_ms\": ",
             Fixed{cell.queue_delay_p95_ms, 3});
      append(out, ", \"jain_index\": ", Fixed{cell.jain_index});
      out += ", \"flows\": [";
      for (std::size_t j = 0; j < cell.flows.size(); ++j) {
        const FlowResult& flow = cell.flows[j];
        append(out, j == 0 ? "" : ", ", "{\"cc\": \"",
               Escaped{flow.controller}, "\"");
        append(out, ", \"bytes\": ", flow.bytes_delivered);
        append(out, ", \"throughput_bps\": ", Fixed{flow.throughput_bps, 1});
        append(out, ", \"share\": ", Fixed{flow.share});
        append(out, ", \"retransmissions\": ", flow.retransmissions, "}");
      }
      out += "]}";
    }
    // Derived metrics ride along only when requested (key absent
    // otherwise, like load_errors): the snapshot is already deterministic
    // JSON, so the report stays byte-stable under the same contract.
    if (!cell.metrics_json.empty()) {
      append(out, ", \"metrics\": ", cell.metrics_json);
    }
    out += "}";
  }
  out += "\n  ]";
  if (!claims.empty()) {
    out += ",\n  \"claims\": [";
    for (std::size_t i = 0; i < claims.size(); ++i) {
      const ClaimResult& claim = claims[i];
      append(out, i == 0 ? "\n" : ",\n", "    {\"name\": \"",
             Escaped{claim.name}, "\", \"claim\": \"", Escaped{claim.text},
             "\"");
      if (claim.status != ClaimResult::Status::kSkipped) {
        append(out, ", \"value\": ", Fixed{claim.value, 4});
      }
      append(out, ", \"status\": \"", claim.status_name(), "\"}");
    }
    out += "\n  ]";
  }
  out += "\n}\n";
  return out;
}

std::string Report::to_csv() const {
  std::string out =
      "cell,site,protocol,shell,queue,cc,fleet,fleet_sessions,loads,"
      "failed_loads,plt_median_ms,plt_mean_ms,plt_p95_ms,plt_min_ms,"
      "plt_max_ms,queue_delay_p95_ms,jain_index,flow_shares";
  if (fault_axis) {
    out += ",fault,objects_failed,retries,timeouts,degraded_plt_median_ms";
  }
  out += "\n";
  for (const CellResult& cell : cells) {
    append(out, cell.index, ",", cell.site, ",", cell.protocol, ",",
           cell.shell, ",", cell.queue, ",", cell.cc, ",", cell.fleet, ",",
           cell.fleet_sessions, ",", cell.plt_ms.size(), ",",
           cell.failed_loads, ",");
    for (const double stat : plt_summary(cell.plt_ms)) {
      append(out, Fixed{stat}, ",");
    }
    if (cell.probe_ran) {
      append(out, Fixed{cell.queue_delay_p95_ms, 3}, ",",
             Fixed{cell.jain_index}, ",");
      for (std::size_t j = 0; j < cell.flows.size(); ++j) {
        append(out, j == 0 ? "" : "|", cell.flows[j].controller, ":",
               Fixed{cell.flows[j].share, 4});
      }
    } else {
      out += ",,";
    }
    if (fault_axis) {
      const util::Samples& deg = cell.degraded_plt_ms;
      append(out, ",", cell.fault, ",", cell.objects_failed, ",",
             cell.retries, ",", cell.timeouts, ",",
             Fixed{deg.empty() ? 0 : deg.median()});
    }
    out += "\n";
  }
  return out;
}

std::string Report::to_bench_json() const {
  std::string out;
  out += "{\n  \"schema\": \"mahimahi-bench-v1\",\n  \"benchmarks\": [";
  bool first = true;
  const auto add = [&](const std::string& row_name, double ns_per_op) {
    append(out, first ? "\n" : ",\n", "    {\"name\": \"", Escaped{row_name},
           "\", \"ns_per_op\": ", Fixed{ns_per_op, 1},
           ", \"items_per_second\": 0, \"bytes_per_second\": 0}");
    first = false;
  };
  for (const CellResult& cell : cells) {
    std::string label = cell.site + "/" + cell.protocol + "/" + cell.shell +
                        "/" + cell.queue + "/" + cell.cc + "/" + cell.fleet;
    if (fault_axis && cell.fault != "none") {
      label += "/" + cell.fault;
    }
    if (!cell.plt_ms.empty()) {
      add("exp_plt_median/" + label, cell.plt_ms.median() * 1e6);
    }
    if (fault_axis && !cell.degraded_plt_ms.empty()) {
      add("exp_degraded_plt/" + label, cell.degraded_plt_ms.median() * 1e6);
    }
    if (cell.probe_ran) {
      add("exp_queue_p95_ms/" + label, cell.queue_delay_p95_ms * 1e6);
      add("exp_jain/" + label, cell.jain_index * 1e9);
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace mahimahi::experiment
