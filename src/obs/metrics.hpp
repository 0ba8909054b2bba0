#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace mahimahi::obs {

/// Log-bucketed histogram with *fixed* bucket boundaries: four sub-buckets
/// per octave, cut at the quarter-octave mantissa points (2^0.25, 2^0.5,
/// 2^0.75). Bucketing uses frexp/ldexp only — exact IEEE operations — so a
/// bucket index is a pure function of the value on every platform, and a
/// snapshot's bytes depend only on the observed multiset, never on thread
/// count, merge order or libm. Percentiles report the upper bound of the
/// bucket holding the rank, clamped to the exact observed [min, max].
class Histogram {
 public:
  void observe(double value);
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double percentile(double p) const;

  /// Bucket index for a value: values <= 0 share the zero bucket;
  /// otherwise exponent * 4 + quarter-octave sub-bucket.
  [[nodiscard]] static std::int32_t bucket_of(double value);
  /// Upper boundary of a bucket (inclusive), 0 for the zero bucket.
  [[nodiscard]] static double upper_bound(std::int32_t bucket);

  [[nodiscard]] const std::map<std::int32_t, std::uint64_t>& buckets() const {
    return buckets_;
  }

 private:
  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t count_{0};
  double sum_{0};
  double min_{0};
  double max_{0};
};

/// Point-in-time value set, ordered by name — the serializable face of a
/// MetricsRegistry. All serializations use fixed-precision formatting, so
/// equal registries produce byte-identical text.
struct MetricsSnapshot {
  struct HistogramStats {
    std::uint64_t count{0};
    double sum{0};
    double min{0};
    double max{0};
    double p50{0};
    double p90{0};
    double p99{0};
  };

  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  [[nodiscard]] std::size_t size() const {
    return counters.size() + gauges.size() + histograms.size();
  }

  /// Full document: {"schema": "mahimahi-metrics-v1", ...}, one metric per
  /// line (`mm_trace metrics` output).
  [[nodiscard]] std::string to_json() const;
  /// The same object without schema or newlines — the per-cell `metrics`
  /// block embedded in an experiment report row.
  [[nodiscard]] std::string to_json_inline() const;
  /// "name,type,count,sum,min,max,p50,p90,p99,value" rows.
  [[nodiscard]] std::string to_csv() const;
};

/// Deterministic named counters/gauges/histograms. Not thread-safe on
/// purpose: one registry belongs to one deterministic derivation (one cell
/// merge), matching the repo's one-Rng-per-task convention.
class MetricsRegistry {
 public:
  void add_counter(const std::string& name, std::int64_t delta = 1);
  void set_gauge(const std::string& name, double value);
  void observe(const std::string& name, double value);
  /// The histogram named `name`, created empty on first use. The
  /// reference stays valid for the registry's lifetime, so a hot loop can
  /// look a name up once and observe through it.
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Derive the full metric catalog from one load's trace into `registry`.
/// This is the only way metrics are populated: they are a pure function of
/// the trace, so the runner derives every cell's metrics post-hoc,
/// journaled resumes included. The catalog:
///   events.<layer>.<kind>        per-event counters
///   objects.* / pages.*          waterfall outcome counters
///   queue.residence_us           enqueue→dequeue matched by (queue, pkt id)
///   queue.depth_pkts             instantaneous depth at each enqueue
///   tcp.cwnd_convergence_us      per flow: first time cwnd stays within
///                                25% of its final sample
///   tcp.retransmit_burst         per flow: maximal retransmit runs with
///                                inter-event gaps <= 100 ms
///   plt.phase.{dns,connect,request,first_byte,receive}_us
///                                per-object critical-path breakdown
///   fault.recovery_us            fetch_start→complete of retried objects
///                                that still completed
/// Matching state is local to the call: one load is one simulation, so
/// flows and packet ids never alias across loads.
void derive_metrics(const TraceBuffer& trace, MetricsRegistry& registry);

/// One cell's metrics: derive every load (in the given order — the runner
/// passes load-index order) into a fresh registry, then add the
/// plt.share.* gauges (each phase's share of the cell's summed critical
/// path) and snapshot.
[[nodiscard]] MetricsSnapshot derive_cell_metrics(
    const std::vector<LoadTrace>& loads);

}  // namespace mahimahi::obs
