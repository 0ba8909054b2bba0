#include "obs/metrics.hpp"

#include <array>
#include <cmath>
#include <string_view>
#include <utility>

#include "util/json.hpp"

namespace mahimahi::obs {
namespace {

// Quarter-octave mantissa boundaries: 2^-1, 2^-0.75, 2^-0.5, 2^-0.25 — the
// cut points of frexp's [0.5, 1) mantissa range. Compile-time constants,
// never recomputed, so bucket edges are pinned forever.
constexpr double kQuarter[4] = {0.5, 0.59460355750136051, 0.70710678118654757,
                                0.84089641525371461};

// The bucket all values <= 0 share (timings and counts are non-negative;
// an exact zero is common — e.g. a warm-connection connect phase).
constexpr std::int32_t kZeroBucket = INT32_MIN;

using util::append;
using util::Escaped;
using util::Fixed;

void append_value(std::string& out, std::int64_t counter) {
  append(out, counter);
}

void append_value(std::string& out, double gauge) {
  append(out, Fixed{gauge});
}

void append_value(std::string& out, const MetricsSnapshot::HistogramStats& h) {
  append(out, "{\"count\": ", h.count, ", \"sum\": ", Fixed{h.sum},
         ", \"min\": ", Fixed{h.min}, ", \"max\": ", Fixed{h.max},
         ", \"p50\": ", Fixed{h.p50}, ", \"p90\": ", Fixed{h.p90},
         ", \"p99\": ", Fixed{h.p99}, "}");
}

/// One `"name": {...}` section of a snapshot, one entry per line when
/// `multiline` (the standalone document) or all on one line (the inline
/// report block).
template <typename Map>
void append_section(std::string& out, const char* name, const Map& entries,
                    bool multiline) {
  append(out, "\"", name, "\": {");
  bool first = true;
  for (const auto& [key, value] : entries) {
    if (multiline) {
      out += first ? "\n    " : ",\n    ";
    } else if (!first) {
      out += ", ";
    }
    first = false;
    append(out, "\"", Escaped{key}, "\": ");
    append_value(out, value);
  }
  out += multiline && !entries.empty() ? "\n  }" : "}";
}

std::string snapshot_json(const MetricsSnapshot& snap, bool multiline) {
  const char* between = multiline ? ",\n  " : ", ";
  std::string out =
      multiline ? "{\n  \"schema\": \"mahimahi-metrics-v1\",\n  " : "{";
  append_section(out, "counters", snap.counters, multiline);
  out += between;
  append_section(out, "gauges", snap.gauges, multiline);
  out += between;
  append_section(out, "histograms", snap.histograms, multiline);
  out += multiline ? "\n}\n" : "}";
  return out;
}

}  // namespace

// ---- Histogram ------------------------------------------------------------

std::int32_t Histogram::bucket_of(double value) {
  if (!(value > 0)) {
    return kZeroBucket;
  }
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // [0.5, 1)
  int sub = 3;
  if (mantissa < kQuarter[1]) {
    sub = 0;
  } else if (mantissa < kQuarter[2]) {
    sub = 1;
  } else if (mantissa < kQuarter[3]) {
    sub = 2;
  }
  return exponent * 4 + sub;
}

double Histogram::upper_bound(std::int32_t bucket) {
  if (bucket == kZeroBucket) {
    return 0;
  }
  // Round toward the octave floor for negative indices too.
  std::int32_t exponent = bucket / 4;
  std::int32_t sub = bucket % 4;
  if (sub < 0) {
    sub += 4;
    --exponent;
  }
  const double boundary = sub == 3 ? 1.0 : kQuarter[sub + 1];
  return std::ldexp(boundary, exponent);
}

void Histogram::observe(double value) {
  ++buckets_[bucket_of(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = value < min_ ? value : min_;
    max_ = value > max_ ? value : max_;
  }
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (const auto& [bucket, count] : other.buckets_) {
    buckets_[bucket] += count;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = other.min_ < min_ ? other.min_ : min_;
    max_ = other.max_ > max_ ? other.max_ : max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  if (p <= 0) {
    return min_;
  }
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(p/100 * n). Integer arithmetic so the rank is exact.
  const auto rank_target = static_cast<std::uint64_t>(
      (p >= 100 ? 100.0 : p) / 100.0 * static_cast<double>(count_) + 0.999999);
  const std::uint64_t rank = rank_target == 0 ? 1 : rank_target;
  std::uint64_t cumulative = 0;
  for (const auto& [bucket, count] : buckets_) {
    cumulative += count;
    if (cumulative >= rank) {
      double bound = upper_bound(bucket);
      bound = bound < min_ ? min_ : bound;
      return bound > max_ ? max_ : bound;
    }
  }
  return max_;
}

// ---- MetricsSnapshot ------------------------------------------------------

std::string MetricsSnapshot::to_json_inline() const {
  return snapshot_json(*this, /*multiline=*/false);
}

std::string MetricsSnapshot::to_json() const {
  return snapshot_json(*this, /*multiline=*/true);
}

std::string MetricsSnapshot::to_csv() const {
  std::string out = "name,type,count,sum,min,max,p50,p90,p99,value\n";
  for (const auto& [name, value] : counters) {
    append(out, CsvField{name}, ",counter,,,,,,,,", value, "\n");
  }
  for (const auto& [name, value] : gauges) {
    append(out, CsvField{name}, ",gauge,,,,,,,,", Fixed{value}, "\n");
  }
  for (const auto& [name, h] : histograms) {
    append(out, CsvField{name}, ",histogram,", h.count, ",", Fixed{h.sum},
           ",", Fixed{h.min}, ",", Fixed{h.max}, ",", Fixed{h.p50}, ",",
           Fixed{h.p90}, ",", Fixed{h.p99}, ",\n");
  }
  return out;
}

// ---- MetricsRegistry ------------------------------------------------------

void MetricsRegistry::add_counter(const std::string& name,
                                  std::int64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  histograms_[name].observe(value);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramStats stats;
    stats.count = histogram.count();
    stats.sum = histogram.sum();
    stats.min = histogram.min();
    stats.max = histogram.max();
    stats.p50 = histogram.percentile(50);
    stats.p90 = histogram.percentile(90);
    stats.p99 = histogram.percentile(99);
    snap.histograms.emplace(name, stats);
  }
  return snap;
}

// ---- derivation -----------------------------------------------------------

namespace {

/// Clamp each waterfall boundary into monotone order, inheriting the
/// previous boundary when a phase never happened — the critical-path
/// phases are then the non-negative gaps between consecutive boundaries.
/// (A multiplexed "sent" can timestamp before the handshake completes —
/// the request went to the pre-connect queue — so raw boundaries are not
/// guaranteed monotone.)
struct PhaseBreakdown {
  double dns{0};
  double connect{0};
  double request{0};
  double first_byte{0};
  double receive{0};
};

PhaseBreakdown object_phases(const ObjectRecord& o) {
  const auto step = [](Microseconds raw, Microseconds previous) {
    return raw < previous ? previous : raw;
  };
  PhaseBreakdown phases;
  if (o.fetch_start < 0 || o.complete < 0) {
    return phases;  // never completed: no critical path to split
  }
  const Microseconds start = o.fetch_start;
  const Microseconds dns_done = step(o.dns_done, start);
  const Microseconds connect_done = step(o.connect_done, dns_done);
  const Microseconds request_sent = step(o.request_sent, connect_done);
  const Microseconds first_byte = step(o.first_byte, request_sent);
  const Microseconds complete = step(o.complete, first_byte);
  phases.dns = static_cast<double>(dns_done - start);
  phases.connect = static_cast<double>(connect_done - dns_done);
  phases.request = static_cast<double>(request_sent - connect_done);
  phases.first_byte = static_cast<double>(first_byte - request_sent);
  phases.receive = static_cast<double>(complete - first_byte);
  return phases;
}

}  // namespace

void derive_metrics(const TraceBuffer& trace, MetricsRegistry& registry) {
  // Each histogram is looked up once per call, at its first observation,
  // so a trace that never observes a name adds no empty histogram.
  struct NamedHistogram {
    MetricsRegistry& registry;
    const char* name;
    Histogram* histogram{nullptr};

    void observe(double value) {
      if (histogram == nullptr) {
        histogram = &registry.histogram(name);
      }
      histogram->observe(value);
    }
  };
  NamedHistogram depth{registry, "queue.depth_pkts"};
  NamedHistogram residence{registry, "queue.residence_us"};
  NamedHistogram burst_runs{registry, "tcp.retransmit_burst"};
  NamedHistogram convergence{registry, "tcp.cwnd_convergence_us"};
  NamedHistogram recovery{registry, "fault.recovery_us"};
  NamedHistogram phase_dns{registry, "plt.phase.dns_us"};
  NamedHistogram phase_connect{registry, "plt.phase.connect_us"};
  NamedHistogram phase_request{registry, "plt.phase.request_us"};
  NamedHistogram phase_first_byte{registry, "plt.phase.first_byte_us"};
  NamedHistogram phase_receive{registry, "plt.phase.receive_us"};
  NamedHistogram page_plt{registry, "page.plt_us"};

  // events.<layer>.<kind> counts, named once at the end. A layer or kind
  // outside the enums (a foreign decoded buffer) counts under its
  // to_string name ("unknown") directly.
  constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kRunner) + 1;
  constexpr std::size_t kKinds =
      static_cast<std::size_t>(EventKind::kTaskRetry) + 1;
  std::array<std::array<std::int64_t, kKinds>, kLayers> event_counts{};
  const auto event_counter = [](Layer layer, EventKind kind) {
    std::string counter = "events.";
    append(counter, to_string(layer), ".", to_string(kind));
    return counter;
  };

  // Matching state, all local: one buffer is one simulation. Queue keys
  // view the labels of `trace`, which outlives the call.
  std::map<std::pair<std::string_view, std::uint64_t>, Microseconds> in_queue;
  struct FlowCwnd {
    std::vector<std::pair<Microseconds, double>> samples;
  };
  std::map<std::uint64_t, FlowCwnd> cwnd;
  struct FlowBurst {
    Microseconds last_at{0};
    std::uint64_t run{0};
  };
  std::map<std::uint64_t, FlowBurst> bursts;
  constexpr Microseconds kBurstGap = 100'000;

  for (const TraceEvent& e : trace.events) {
    const auto layer = static_cast<std::size_t>(e.layer);
    const auto kind = static_cast<std::size_t>(e.kind);
    if (layer < kLayers && kind < kKinds) {
      ++event_counts[layer][kind];
    } else {
      registry.add_counter(event_counter(e.layer, e.kind));
    }
    switch (e.kind) {
      case EventKind::kEnqueue:
        if (e.flow != 0) {
          in_queue[{e.label, e.flow}] = e.at;
        }
        depth.observe(static_cast<double>(e.value));
        break;
      case EventKind::kDequeue:
        if (e.flow != 0) {
          const auto it = in_queue.find({e.label, e.flow});
          if (it != in_queue.end()) {
            residence.observe(static_cast<double>(e.at - it->second));
            in_queue.erase(it);
          }
        }
        break;
      case EventKind::kDrop:
        // Drop labels carry a "/reason" suffix the enqueue label lacks;
        // enqueue-time drops were never queued, so there is nothing to
        // unmatch — dropped-at-dequeue ids (flow 0) cannot match either.
        break;
      case EventKind::kTcpCwndSample:
        cwnd[e.flow].samples.emplace_back(e.at, e.metric);
        break;
      case EventKind::kTcpRetransmit: {
        FlowBurst& burst = bursts[e.flow];
        if (burst.run > 0 && e.at - burst.last_at > kBurstGap) {
          burst_runs.observe(static_cast<double>(burst.run));
          burst.run = 0;
        }
        burst.last_at = e.at;
        ++burst.run;
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      if (event_counts[layer][kind] > 0) {
        registry.add_counter(event_counter(static_cast<Layer>(layer),
                                           static_cast<EventKind>(kind)),
                             event_counts[layer][kind]);
      }
    }
  }
  for (const auto& [flow, burst] : bursts) {
    if (burst.run > 0) {
      burst_runs.observe(static_cast<double>(burst.run));
    }
  }
  // Convergence: the earliest sample after which cwnd never leaves the
  // ±25% band around its final value (scanned backwards — the first
  // out-of-band sample from the end pins the convergence point).
  for (const auto& [flow, series] : cwnd) {
    const auto& samples = series.samples;
    if (samples.empty()) {
      continue;
    }
    const double final_cwnd = samples.back().second;
    const double band = 0.25 * (final_cwnd < 0 ? -final_cwnd : final_cwnd);
    std::size_t converged = 0;
    for (std::size_t i = samples.size(); i-- > 0;) {
      const double delta = samples[i].second - final_cwnd;
      if (delta > band || delta < -band) {
        converged = i + 1;
        break;
      }
    }
    if (converged < samples.size()) {
      convergence.observe(static_cast<double>(samples[converged].first -
                                              samples.front().first));
    }
  }

  std::int64_t objects_failed = 0;
  std::int64_t objects_retried = 0;
  for (const ObjectRecord& o : trace.objects) {
    if (o.failed) {
      ++objects_failed;
    }
    if (o.attempts > 1) {
      ++objects_retried;
      if (!o.failed && o.complete >= 0 && o.fetch_start >= 0) {
        recovery.observe(static_cast<double>(o.complete - o.fetch_start));
      }
    }
    if (o.fetch_start < 0 || o.complete < 0) {
      continue;
    }
    const PhaseBreakdown phases = object_phases(o);
    phase_dns.observe(phases.dns);
    phase_connect.observe(phases.connect);
    phase_request.observe(phases.request);
    phase_first_byte.observe(phases.first_byte);
    phase_receive.observe(phases.receive);
  }

  std::int64_t pages_failed = 0;
  for (const PageRecord& p : trace.pages) {
    if (!p.success) {
      ++pages_failed;
    }
    page_plt.observe(static_cast<double>(p.plt));
  }

  // Outcome counters exist once their first instance was seen.
  const std::pair<const char*, std::int64_t> outcomes[] = {
      {"objects.count", static_cast<std::int64_t>(trace.objects.size())},
      {"objects.failed", objects_failed},
      {"objects.retried", objects_retried},
      {"pages.count", static_cast<std::int64_t>(trace.pages.size())},
      {"pages.failed", pages_failed}};
  for (const auto& [name, count] : outcomes) {
    if (count > 0) {
      registry.add_counter(name, count);
    }
  }
}

MetricsSnapshot derive_cell_metrics(const std::vector<LoadTrace>& loads) {
  MetricsRegistry registry;
  for (const LoadTrace& load : loads) {
    derive_metrics(load.buffer, registry);
  }
  MetricsSnapshot snap = registry.snapshot();
  // Critical-path shares over the *whole cell*: each phase histogram's sum
  // already aggregates every completed object across the loads.
  static constexpr const char* kPhases[5] = {"dns", "connect", "request",
                                             "first_byte", "receive"};
  double totals[5] = {0, 0, 0, 0, 0};
  double critical_path = 0;
  for (int i = 0; i < 5; ++i) {
    const auto it =
        snap.histograms.find("plt.phase." + std::string{kPhases[i]} + "_us");
    if (it != snap.histograms.end()) {
      totals[i] = it->second.sum;
      critical_path += totals[i];
    }
  }
  if (critical_path > 0) {
    for (int i = 0; i < 5; ++i) {
      snap.gauges.emplace("plt.share." + std::string{kPhases[i]},
                          totals[i] / critical_path);
    }
  }
  return snap;
}

}  // namespace mahimahi::obs
