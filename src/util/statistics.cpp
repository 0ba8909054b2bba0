#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace mahimahi::util {

Samples::Samples(std::vector<double> values) : values_{std::move(values)} {}

void Samples::add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_valid_ = false;
}

void Samples::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::mean() const {
  MAHI_ASSERT(!values_.empty());
  double sum = 0.0;
  for (const double v : values_) {
    sum += v;
  }
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  MAHI_ASSERT(!values_.empty());
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t count = 0;
  for (const double v : values_) {
    ++count;
    const double delta = v - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (v - mean);
  }
  return count < 2 ? 0.0 : std::sqrt(m2 / static_cast<double>(count - 1));
}

double Samples::min() const {
  ensure_sorted();
  MAHI_ASSERT(!sorted_.empty());
  return sorted_.front();
}

double Samples::max() const {
  ensure_sorted();
  MAHI_ASSERT(!sorted_.empty());
  return sorted_.back();
}

double Samples::percentile(double p) const {
  MAHI_ASSERT_MSG(p >= 0.0 && p <= 100.0, "percentile out of range: " << p);
  ensure_sorted();
  MAHI_ASSERT(!sorted_.empty());
  if (sorted_.size() == 1) {
    return sorted_.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::string render_table(const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (row.size() > widths.size()) {
      widths.resize(row.size(), 0);
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size()) {
        out << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    out << '\n';
  }
  return out.str();
}

double percent_difference(double a, double b) {
  MAHI_ASSERT(a != 0.0);
  return 100.0 * (b - a) / a;
}

double jain_fairness_index(const std::vector<double>& allocations) {
  if (allocations.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : allocations) {
    MAHI_ASSERT(x >= 0.0);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) {
    return 0.0;  // all-zero allocations: fairness is undefined, report 0
  }
  return (sum * sum) / (static_cast<double>(allocations.size()) * sum_sq);
}

}  // namespace mahimahi::util
