// Unit tests for the metrics layer: histogram bucket math, snapshot
// determinism, merge independence, and the derived-metric catalog.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace mahimahi::obs {
namespace {

TEST(Histogram, ZeroAndNegativeShareTheZeroBucket) {
  EXPECT_EQ(Histogram::bucket_of(0.0), Histogram::bucket_of(-3.5));
  EXPECT_EQ(Histogram::upper_bound(Histogram::bucket_of(0.0)), 0.0);
}

TEST(Histogram, BucketBoundariesAreExclusiveUpperBounds) {
  // Buckets cover [lower, upper): the bound itself starts the next bucket,
  // anything just below it still belongs to this one. percentile() reports
  // upper bounds, so this relation caps its overestimate at one sub-bucket.
  for (const double value : {0.001, 0.5, 1.0, 1.5, 2.0, 3.0, 1000.0,
                             123456.789, 1e9}) {
    const std::int32_t bucket = Histogram::bucket_of(value);
    const double upper = Histogram::upper_bound(bucket);
    EXPECT_GT(upper, value) << value;
    EXPECT_EQ(Histogram::bucket_of(upper), bucket + 1) << value;
    EXPECT_EQ(Histogram::bucket_of(upper * 0.9999), bucket) << value;
  }
}

TEST(Histogram, FourSubBucketsPerOctave) {
  // One octave = exactly four quarter-octave buckets.
  EXPECT_EQ(Histogram::bucket_of(2.0) - Histogram::bucket_of(1.0), 4);
  EXPECT_EQ(Histogram::bucket_of(1024.0) - Histogram::bucket_of(512.0), 4);
}

TEST(Histogram, PercentileClampsToObservedRange) {
  Histogram h;
  h.observe(10.0);
  h.observe(11.0);
  h.observe(12.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 12.0);
  EXPECT_GE(h.percentile(50), 10.0);
  EXPECT_LE(h.percentile(99), 12.0);  // clamped: bucket bound > 12
  EXPECT_DOUBLE_EQ(h.percentile(100), 12.0);
}

TEST(Histogram, SingleValuePercentilesAreExact) {
  Histogram h;
  h.observe(123.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 123.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 123.0);
}

TEST(Histogram, MergeEqualsInterleavedObservation) {
  Histogram whole;
  Histogram left;
  Histogram right;
  for (int i = 1; i <= 100; ++i) {
    const double value = i * 7.3;
    whole.observe(value);
    (i % 2 == 0 ? left : right).observe(value);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_EQ(left.buckets(), whole.buckets());
  EXPECT_DOUBLE_EQ(left.percentile(50), whole.percentile(50));
  EXPECT_DOUBLE_EQ(left.percentile(99), whole.percentile(99));
}

TEST(MetricsRegistry, SnapshotSerializationsAreDeterministic) {
  const auto build = [] {
    MetricsRegistry registry;
    registry.add_counter("b.count", 2);
    registry.add_counter("a.count");
    registry.set_gauge("share", 0.25);
    registry.observe("latency_us", 100.0);
    registry.observe("latency_us", 900.0);
    return registry.snapshot();
  };
  const MetricsSnapshot snap = build();
  EXPECT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.to_json(), build().to_json());
  EXPECT_EQ(snap.to_csv(), build().to_csv());
  // Names serialize in sorted order regardless of insertion order.
  EXPECT_LT(snap.to_json().find("a.count"), snap.to_json().find("b.count"));
  EXPECT_NE(snap.to_json().find("\"schema\": \"mahimahi-metrics-v1\""),
            std::string::npos);
  // The inline form is a single line (embeddable in a report row).
  EXPECT_EQ(snap.to_json_inline().find('\n'), std::string::npos);
}

TEST(MetricsRegistry, BothJsonFormsParseToTheSameValues) {
  MetricsRegistry registry;
  registry.add_counter("ctl\x01\"name\"", 3);
  registry.set_gauge("share\\tab\t", 0.5);
  registry.observe("latency_us", 100.0);
  const MetricsSnapshot snap = registry.snapshot();
  const util::JsonValue full = util::parse_json(snap.to_json());
  const util::JsonValue inline_form = util::parse_json(snap.to_json_inline());
  EXPECT_EQ(full.find("schema")->string, "mahimahi-metrics-v1");
  EXPECT_EQ(inline_form.find("schema"), nullptr);
  for (const util::JsonValue* root : {&full, &inline_form}) {
    EXPECT_DOUBLE_EQ(root->find("counters")->find("ctl\x01\"name\"")->number,
                     3.0);
    EXPECT_DOUBLE_EQ(root->find("gauges")->find("share\\tab\t")->number, 0.5);
    EXPECT_DOUBLE_EQ(
        root->find("histograms")->find("latency_us")->find("count")->number,
        1.0);
  }
  // Empty sections are well-formed too.
  EXPECT_NO_THROW((void)util::parse_json(MetricsSnapshot{}.to_json()));
  EXPECT_NO_THROW((void)util::parse_json(MetricsSnapshot{}.to_json_inline()));
}

std::vector<LoadTrace> waterfall_loads() {
  Tracer tracer;
  // Queue residence: packet 7 spends 900 us in "up".
  tracer.event(100, Layer::kLink, EventKind::kEnqueue, -1, 7, 1, 0.0, "up");
  tracer.event(1'000, Layer::kLink, EventKind::kDequeue, -1, 7, 0, 0.0, "up");
  // cwnd converges to ~40000 after an early low sample.
  tracer.event(1'000, Layer::kTcp, EventKind::kTcpCwndSample, 0, 1, 0,
               10'000.0, "");
  tracer.event(2'000, Layer::kTcp, EventKind::kTcpCwndSample, 0, 1, 0,
               39'000.0, "");
  tracer.event(3'000, Layer::kTcp, EventKind::kTcpCwndSample, 0, 1, 0,
               40'000.0, "");
  // Two retransmit bursts: gap 200 ms splits them.
  tracer.event(1'000, Layer::kTcp, EventKind::kTcpRetransmit, 0, 1, 1, 0.0,
               "");
  tracer.event(2'000, Layer::kTcp, EventKind::kTcpRetransmit, 0, 1, 2, 0.0,
               "");
  tracer.event(202'000, Layer::kTcp, EventKind::kTcpRetransmit, 0, 1, 3, 0.0,
               "");
  ObjectRecord& object = tracer.object(0, "http://site.test/a.js");
  object.fetch_start = 0;
  object.dns_start = 0;
  object.dns_done = 400;
  object.connect_done = 700;
  object.request_sent = 1'000;
  object.first_byte = 2'000;
  object.complete = 3'000;
  // A retried-but-recovered object: fault.recovery_us material.
  ObjectRecord& retried = tracer.object(0, "http://site.test/b.css");
  retried.fetch_start = 500;
  retried.complete = 9'500;
  retried.attempts = 3;
  tracer.page(PageRecord{0, "http://site.test/", 0, 4'000, 4'000, true});
  std::vector<LoadTrace> loads;
  loads.push_back(LoadTrace{0, tracer.take()});
  return loads;
}

TEST(DeriveMetrics, CatalogCoversQueueTcpPltAndFaults) {
  const MetricsSnapshot snap = derive_cell_metrics(waterfall_loads());

  // One counter per buffered event, keyed "events.<layer>.<kind>".
  EXPECT_EQ(snap.counters.at("events.link.enqueue"), 1);
  EXPECT_EQ(snap.counters.at("objects.count"), 2);
  EXPECT_EQ(snap.counters.at("objects.retried"), 1);
  EXPECT_EQ(snap.counters.at("pages.count"), 1);

  const auto& residence = snap.histograms.at("queue.residence_us");
  EXPECT_EQ(residence.count, 1u);
  EXPECT_DOUBLE_EQ(residence.sum, 900.0);

  // cwnd converges at the 2000-us sample (39000 is within 25% of 40000);
  // convergence time counts from the first sample: 2000 - 1000.
  const auto& convergence = snap.histograms.at("tcp.cwnd_convergence_us");
  EXPECT_EQ(convergence.count, 1u);
  EXPECT_DOUBLE_EQ(convergence.sum, 1'000.0);

  // Bursts: {1000, 2000} and {202000} — sizes 2 and 1.
  const auto& burst = snap.histograms.at("tcp.retransmit_burst");
  EXPECT_EQ(burst.count, 2u);
  EXPECT_DOUBLE_EQ(burst.sum, 3.0);
  EXPECT_DOUBLE_EQ(burst.max, 2.0);

  // PLT critical path: a.js contributes dns 400, connect 300, request 300,
  // first-byte 1000, receive 1000; b.css (no intermediate stamps) puts its
  // whole 9000-us span into receive.
  EXPECT_DOUBLE_EQ(snap.histograms.at("plt.phase.dns_us").sum, 400.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("plt.phase.connect_us").sum, 300.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("plt.phase.first_byte_us").sum,
                   1'000.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("plt.phase.receive_us").sum, 10'000.0);

  // Shares are the phase sums normalized over the cell.
  double share_total = 0;
  for (const char* phase :
       {"dns", "connect", "request", "first_byte", "receive"}) {
    share_total += snap.gauges.at("plt.share." + std::string{phase});
  }
  EXPECT_NEAR(share_total, 1.0, 1e-9);

  // The retried object recovered: 9500 - 500 us.
  const auto& recovery = snap.histograms.at("fault.recovery_us");
  EXPECT_EQ(recovery.count, 1u);
  EXPECT_DOUBLE_EQ(recovery.sum, 9'000.0);
}

TEST(DeriveMetrics, CellDerivationIsAPureFunctionOfTheLoads) {
  EXPECT_EQ(derive_cell_metrics(waterfall_loads()).to_json(),
            derive_cell_metrics(waterfall_loads()).to_json());
}

}  // namespace
}  // namespace mahimahi::obs
