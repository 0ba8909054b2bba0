#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mahimahi::util {

/// A batch of samples with percentile queries. Keeps every sample;
/// intended for experiment post-processing, not hot paths.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values);

  void add(double x);

  /// Append another batch's samples after this one, preserving both
  /// insertion orders. The order-preserving half of a parallel fan-out:
  /// merging per-task batches in load-index order reproduces the exact
  /// sample sequence of a sequential run.
  void append(const Samples& other);

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  [[nodiscard]] double mean() const;
  /// Sample standard deviation (n-1 denominator; 0 for one sample),
  /// accumulated in one Welford pass.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Percentile p in [0, 100], linear interpolation between order statistics.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_{false};
};

/// Render a fixed-width table (rows of cells) — used by the bench harness
/// to print paper-style tables.
std::string render_table(const std::vector<std::vector<std::string>>& rows);

/// Percent difference of b relative to a: 100 * (b - a) / a.
double percent_difference(double a, double b);

/// Jain's fairness index over per-flow allocations (throughputs, shares —
/// any non-negative resource metric): (Σx)² / (n·Σx²). 1.0 = perfectly
/// equal, 1/n = one flow has everything. Returns 0 for an empty vector or
/// when every allocation is zero.
double jain_fairness_index(const std::vector<double>& allocations);

}  // namespace mahimahi::util
