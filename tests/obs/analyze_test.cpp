// Tests for the trace-analytics layer: CSV parsing, LoadTrace
// reconstruction (export → parse → re-export round-trips byte-exactly),
// and run-to-run diffing with divergence localization.

#include "obs/analyze.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace mahimahi::obs {
namespace {

std::vector<LoadTrace> sample_loads() {
  std::vector<LoadTrace> loads;
  for (int load = 0; load < 2; ++load) {
    Tracer tracer;
    tracer.event(1'000 + load, Layer::kLink, EventKind::kEnqueue, -1, 5, 3,
                 4500.0, "uplink");
    tracer.event(2'000, Layer::kTcp, EventKind::kTcpCwndSample, 0, 1, 0,
                 14480.0, "");
    ObjectRecord& object = tracer.object(0, "http://site.test/a.js");
    object.kind = "js";
    object.fetch_start = 500;
    object.dns_start = 500;
    object.dns_done = 900;
    object.connect_done = 1'000;
    object.request_sent = 1'100;
    object.first_byte = 2'200;
    object.complete = 3'300;
    object.bytes = 1234;
    object.status = 200;
    tracer.page(PageRecord{0, "http://site.test/", 0, 4'000, 4'000, true});
    loads.push_back(LoadTrace{load, tracer.take()});
  }
  return loads;
}

const TraceMeta kMeta{"unit", "cell-label", 3, 99};

ParsedTrace parse(const std::string& csv) {
  std::istringstream in{csv};
  std::string error;
  auto parsed = parse_trace_csv(in, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return *parsed;
}

TEST(ParseTrace, ReadsHeaderAndRows) {
  const ParsedTrace trace = parse(to_csv(kMeta, sample_loads()));
  EXPECT_EQ(trace.experiment, "unit");
  EXPECT_EQ(trace.cell_label, "cell-label");
  EXPECT_EQ(trace.cell_index, 3);
  EXPECT_EQ(trace.seed, 99u);
  // 2 events + 1 object + 1 page per load, 2 loads.
  EXPECT_EQ(trace.rows.size(), 8u);
  EXPECT_EQ(trace.rows[0].layer, "link");
  EXPECT_EQ(trace.rows[0].flow, 5u);
}

TEST(ParseTrace, RejectsForeignInput) {
  std::istringstream in{"not,a,trace\n1,2,3\n"};
  std::string error;
  EXPECT_FALSE(parse_trace_csv(in, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(DetailHelpers, ExtractFieldsFromBlobs) {
  const std::string detail = "kind=js;status=200;first_byte_us=2200;error=";
  EXPECT_EQ(detail_field(detail, "kind"), "js");
  EXPECT_EQ(detail_field(detail, "error"), "");
  EXPECT_EQ(detail_field(detail, "absent"), "");
  EXPECT_EQ(detail_us(detail, "first_byte_us"), 2200);
  EXPECT_EQ(detail_us(detail, "absent"), -1);
}

TEST(ToLoadTraces, ReExportReproducesTheExactBytes) {
  // The reconstruction inverts to_csv up to the CSV's own precision — so
  // exporting the reconstruction must reproduce the file byte for byte.
  // This is the property that makes `mm_trace metrics` on an exported trace
  // equal the in-run derivation.
  const std::string csv = to_csv(kMeta, sample_loads());
  const ParsedTrace trace = parse(csv);
  const std::vector<LoadTrace> rebuilt = to_load_traces(trace);
  ASSERT_EQ(rebuilt.size(), 2u);
  EXPECT_EQ(rebuilt[0].load_index, 0);
  EXPECT_EQ(rebuilt[0].buffer.events.size(), 2u);
  EXPECT_EQ(rebuilt[0].buffer.objects.size(), 1u);
  EXPECT_EQ(rebuilt[0].buffer.objects[0].connect_done, 1'000);
  EXPECT_EQ(rebuilt[0].buffer.pages.size(), 1u);
  EXPECT_EQ(to_csv(kMeta, rebuilt), csv);
}

TEST(DiffTraces, IdenticalRunsCompareIdentical) {
  const std::string csv = to_csv(kMeta, sample_loads());
  const TraceDiff diff = diff_traces({parse(csv)}, {parse(csv)});
  EXPECT_TRUE(diff.identical);
  ASSERT_EQ(diff.cells.size(), 1u);
  EXPECT_TRUE(diff.cells[0].identical);
}

TEST(DiffTraces, LocalizesTheFirstDivergentEvent) {
  const std::string csv = to_csv(kMeta, sample_loads());
  ParsedTrace a = parse(csv);
  ParsedTrace b = parse(csv);
  // Perturb the second load's enqueue row (row index 4): a different
  // queue-depth value.
  ASSERT_EQ(b.rows[4].kind, "enqueue");
  b.rows[4].value = 9;
  b.rows[4].raw += "?";  // any byte change diverges the raw compare

  const TraceDiff diff = diff_traces({a}, {b});
  EXPECT_FALSE(diff.identical);
  ASSERT_EQ(diff.cells.size(), 1u);
  const CellDiff& cell = diff.cells[0];
  EXPECT_FALSE(cell.identical);
  EXPECT_EQ(cell.first_divergence, 4u);
  EXPECT_EQ(cell.layer, "link");
  EXPECT_EQ(cell.kind, "enqueue");
  EXPECT_NE(cell.a_line, cell.b_line);
}

TEST(DiffTraces, RanksCountAndMetricDeltas) {
  const std::string csv = to_csv(kMeta, sample_loads());
  ParsedTrace a = parse(csv);
  ParsedTrace b = parse(csv);
  // Drop load 1's cwnd sample from b: a count delta in tcp.cwnd and
  // derived-metric deltas (events counter, convergence stats).
  const std::size_t cwnd_row = 5;
  ASSERT_EQ(b.rows[cwnd_row].kind, "cwnd");
  b.rows.erase(b.rows.begin() + static_cast<std::ptrdiff_t>(cwnd_row));

  const TraceDiff diff = diff_traces({a}, {b});
  ASSERT_EQ(diff.cells.size(), 1u);
  const CellDiff& cell = diff.cells[0];
  EXPECT_FALSE(cell.identical);
  ASSERT_FALSE(cell.count_deltas.empty());
  EXPECT_EQ(cell.count_deltas[0].key, "tcp.cwnd");
  EXPECT_EQ(cell.count_deltas[0].a, 2);
  EXPECT_EQ(cell.count_deltas[0].b, 1);
  bool found = false;
  for (const CellDiff::MetricDelta& delta : cell.metric_deltas) {
    if (delta.name == "events.tcp.cwnd") {
      found = true;
      EXPECT_DOUBLE_EQ(delta.a, 2.0);
      EXPECT_DOUBLE_EQ(delta.b, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiffTraces, UnpairedCellsAreDivergences) {
  const std::string csv = to_csv(kMeta, sample_loads());
  const TraceMeta other{"unit", "other-cell", 4, 100};
  const std::string other_csv = to_csv(other, sample_loads());
  const TraceDiff diff =
      diff_traces({parse(csv)}, {parse(csv), parse(other_csv)});
  EXPECT_FALSE(diff.identical);
  ASSERT_EQ(diff.cells.size(), 2u);
  EXPECT_TRUE(diff.cells[0].identical);
  EXPECT_EQ(diff.cells[1].label, "other-cell");
  EXPECT_FALSE(diff.cells[1].in_a);
}

}  // namespace
}  // namespace mahimahi::obs
