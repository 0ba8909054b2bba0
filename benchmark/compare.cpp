// mmbench compare BASE_DIR CHANGE_DIR: reads the `<workload> <metric>
// <value> <unit>` lines of every result file in two directories and gives
// each (workload, metric) pair a verdict by the metric's bound.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compare.hpp"
#include "table.hpp"

namespace mmbench {
namespace {

using Key = std::pair<std::string, std::string>;  // (workload, metric)

struct Series {
  std::string unit;
  std::vector<double> values;  // in result-file name order
};

std::map<Key, Series> read_results(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    if (entry.is_regular_file()) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::map<Key, Series> results;
  for (const auto& file : files) {
    std::ifstream in{file};
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields{line};
      std::string workload, metric, value, unit, extra;
      if (!(fields >> workload >> metric >> value >> unit) ||
          (fields >> extra) || workload[0] == '#' || workload[0] == '{') {
        continue;
      }
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        continue;
      }
      Series& series = results[{workload, metric}];
      series.unit = unit;
      series.values.push_back(number);
    }
  }
  return results;
}

/// Median and quartiles as Python's statistics.median and
/// statistics.quantiles(values, n=4) give them.
struct Summary {
  double median{0};
  double q1{0};
  double q3{0};

  [[nodiscard]] double spread() const {
    return median == 0 ? 0 : (q3 - q1) / std::fabs(median);
  }
};

Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long>(values.size());
  Summary s;
  if (n == 0) {
    return s;
  }
  s.median = n % 2 == 1 ? values[static_cast<std::size_t>(n / 2)]
                        : (values[static_cast<std::size_t>(n / 2 - 1)] +
                           values[static_cast<std::size_t>(n / 2)]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quantile = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) / 4;
  };
  s.q1 = quantile(1);
  s.q3 = quantile(3);
  return s;
}

const Metric* find_metric(const std::string& name) {
  for (const Metric& metric : kMetrics) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

/// +1 when `change` reads better than `base`, -1 worse, 0 tie.
int better(const Metric& metric, double base, double change) {
  if (change == base) {
    return 0;
  }
  const bool lower = change < base;
  return (metric.better == Better::kLower) == lower ? 1 : -1;
}

/// The choosing-metrics rule: a gain needs >= 9/10 of pairs won and a
/// median shift beyond the base's quartile spread; a metric whose spread
/// exceeds its bound is unresolved unless every change run beats every
/// base run; otherwise a worsening beyond the bound is a regression.
std::string verdict(const Metric& metric, const Series& base,
                    const Series& change, const Summary& b, const Summary& c,
                    int& wins, int& pairs) {
  if (metric.kind == Kind::kExact) {
    std::vector<double> x = base.values;
    std::vector<double> y = change.values;
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    return x == y ? "same" : "DIFFERS";
  }
  pairs = static_cast<int>(std::min(base.values.size(), change.values.size()));
  for (int i = 0; i < pairs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    wins += better(metric, base.values[k], change.values[k]) > 0 ? 1 : 0;
  }
  if (metric.kind != Kind::kEndToEnd) {
    return "info";
  }
  bool all_better = true;
  for (const double x : base.values) {
    for (const double y : change.values) {
      all_better = all_better && better(metric, x, y) > 0;
    }
  }
  const double shift = c.median - b.median;
  const bool improving = better(metric, b.median, c.median) > 0;
  if (all_better || (improving && wins * 10 >= pairs * 9 &&
                     std::fabs(shift) > b.q3 - b.q1)) {
    return "improved";
  }
  if (std::max(b.spread(), c.spread()) > metric.bound) {
    return "unresolved";
  }
  const double worse = (metric.better == Better::kLower ? shift : -shift) /
                       std::fabs(b.median);
  return worse > metric.bound ? "regressed" : "no change";
}

}  // namespace

int compare_main(const std::string& base_dir, const std::string& change_dir) {
  const auto base = read_results(base_dir);
  const auto change = read_results(change_dir);
  std::printf("%-16s %-28s %-6s %12s %25s %12s %25s %8s %6s  %s\n", "workload",
              "metric", "unit", "base p50", "base [q1, q3]", "change p50",
              "change [q1, q3]", "delta", "won", "verdict");
  int status = 0;
  for (const auto& [key, base_series] : base) {
    const Metric* metric = find_metric(key.second);
    if (metric == nullptr) {
      continue;
    }
    const auto it = change.find(key);
    if (it == change.end()) {
      std::printf("%-16s %-28s missing from %s\n", key.first.c_str(),
                  key.second.c_str(), change_dir.c_str());
      status = 1;
      continue;
    }
    const Summary b = summarize(base_series.values);
    const Summary c = summarize(it->second.values);
    int wins = 0;
    int pairs = 0;
    const std::string result =
        verdict(*metric, base_series, it->second, b, c, wins, pairs);
    if (result == "regressed" || result == "DIFFERS") {
      status = 1;
    }
    char base_range[64];
    char change_range[64];
    std::snprintf(base_range, sizeof base_range, "[%.6g, %.6g]", b.q1, b.q3);
    std::snprintf(change_range, sizeof change_range, "[%.6g, %.6g]", c.q1,
                  c.q3);
    const double delta =
        b.median == 0 ? 0 : 100 * (c.median - b.median) / std::fabs(b.median);
    const std::string won =
        pairs == 0 ? "-" : std::to_string(wins) + "/" + std::to_string(pairs);
    std::printf("%-16s %-28s %-6s %12.6g %25s %12.6g %25s %+7.2f%% %6s  %s\n",
                key.first.c_str(), key.second.c_str(),
                base_series.unit.c_str(), b.median, base_range, c.median,
                change_range, delta, won.c_str(), result.c_str());
  }
  return status;
}

}  // namespace mmbench
