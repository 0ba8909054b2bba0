// Tests for the trace-analytics layer: CSV parsing, LoadTrace
// reconstruction (export → parse → rebuild is lossless, so every view
// renders from the CSV byte for byte), and run-to-run diffing with
// divergence localization.

#include "obs/analyze.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/random.hpp"

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

// ---- lossless round trip ----------------------------------------------------

/// Text that stresses every separator the CSV uses: ',' ';' '=' '"' CR LF,
/// spaces, a leading quote, a trailing backslash, or nothing at all.
std::string adversarial_text(util::Rng& rng) {
  static const std::vector<std::string> kPieces = {
      ",", ";", "=", "\"", "\r", "\n", "\r\n", " ", "\t", "\\", "a", "b/c",
      "http://site.test/x?q=1;r=2", "error=", "kind=", "\"\"", ",,", "é"};
  std::string text;
  const auto count = rng.uniform_int(0, 6);
  for (std::int64_t i = 0; i < count; ++i) {
    text += kPieces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kPieces.size()) - 1))];
  }
  return text;
}

/// A metric: one of the values %.6f cannot carry (1/3, 1e-9, a fractional
/// CUBIC cwnd, x.xxx4999999) or can (whole numbers, 1e12, millisecond
/// values), or a random double of any magnitude.
double adversarial_metric(util::Rng& rng) {
  static const std::vector<double> kValues = {
      1.0 / 3, 1e-9, 1e12, 1.0004999999, 2.0000005, 6030.067441182164,
      0.1, 14480.0, -0.0, 0.0, 123.456, -7.25, 0x1p31 + 0.5, 0x1p33 + 0.25,
      1e300, -1e-300, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), 4294967295.0};
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return kValues[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kValues.size()) - 1))];
    case 1:
      return static_cast<double>(rng.uniform_int(-1'000'000, 100'000'000));
    case 2:
      return static_cast<double>(rng.uniform_int(0, 10'000'000)) / 1000.0;
    default:
      return rng.uniform(-1.0, 1.0) *
             std::pow(10.0, static_cast<double>(rng.uniform_int(-12, 15)));
  }
}

Microseconds adversarial_time(util::Rng& rng) {
  return rng.chance(0.2) ? -1 : rng.uniform_int(-5, 1'000'000'000'000);
}

std::vector<LoadTrace> random_loads(util::Rng& rng) {
  std::vector<LoadTrace> loads;
  int load_index = static_cast<int>(rng.uniform_int(0, 3));
  const auto load_count = rng.uniform_int(0, 4);
  for (std::int64_t l = 0; l < load_count; ++l) {
    LoadTrace load{load_index, {}};
    load_index += static_cast<int>(rng.uniform_int(1, 3));
    if (rng.chance(0.15)) {
      loads.push_back(std::move(load));  // a failed or cancelled task
      continue;
    }
    const auto session = [&] {
      return static_cast<std::int32_t>(rng.uniform_int(-1, 40));
    };
    for (std::int64_t i = rng.uniform_int(0, 12); i > 0; --i) {
      TraceEvent e;
      e.at = adversarial_time(rng);
      e.layer = static_cast<Layer>(
          rng.uniform_int(0, static_cast<int>(Layer::kRunner)));
      e.kind = static_cast<EventKind>(
          rng.uniform_int(0, static_cast<int>(EventKind::kTaskRetry)));
      e.session = session();
      e.flow = rng.next();
      e.value = rng.next() >> rng.uniform_int(0, 63);
      e.metric = adversarial_metric(rng);
      e.label = adversarial_text(rng);
      load.buffer.events.push_back(std::move(e));
    }
    for (std::int64_t i = rng.uniform_int(0, 5); i > 0; --i) {
      ObjectRecord o;
      o.url = adversarial_text(rng);
      o.kind = adversarial_text(rng);
      o.session = session();
      o.fetch_start = rng.chance(0.3) ? -rng.uniform_int(1, 9)
                                      : adversarial_time(rng);
      o.dns_start = adversarial_time(rng);
      o.dns_done = adversarial_time(rng);
      o.connect_done = adversarial_time(rng);
      o.request_sent = adversarial_time(rng);
      o.first_byte = adversarial_time(rng);
      o.complete = adversarial_time(rng);
      o.bytes = rng.next() >> rng.uniform_int(0, 63);
      o.status = static_cast<std::uint32_t>(rng.next());
      o.attempts = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
      o.failed = rng.chance(0.5);
      o.error = adversarial_text(rng);
      load.buffer.objects.push_back(std::move(o));
    }
    for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
      PageRecord p;
      p.session = session();
      p.url = adversarial_text(rng);
      p.started_at = adversarial_time(rng);
      p.plt = adversarial_time(rng);
      p.degraded_plt = adversarial_time(rng);
      p.success = rng.chance(0.5);
      load.buffer.pages.push_back(std::move(p));
    }
    loads.push_back(std::move(load));
  }
  return loads;
}

/// Bit-exact metric comparison: -0.0 must stay -0.0.
void expect_same_loads(const std::vector<LoadTrace>& actual,
                       const std::vector<LoadTrace>& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t l = 0; l < expected.size(); ++l) {
    const TraceBuffer& a = actual[l].buffer;
    const TraceBuffer& b = expected[l].buffer;
    EXPECT_EQ(actual[l].load_index, expected[l].load_index) << context;
    ASSERT_EQ(a.events.size(), b.events.size()) << context << " load " << l;
    for (std::size_t i = 0; i < b.events.size(); ++i) {
      EXPECT_TRUE(a.events[i] == b.events[i] &&
                  std::signbit(a.events[i].metric) ==
                      std::signbit(b.events[i].metric))
          << context << " load " << l << " event " << i << ": metric "
          << a.events[i].metric << " vs " << b.events[i].metric
          << ", label '" << a.events[i].label << "' vs '"
          << b.events[i].label << "'";
    }
    EXPECT_EQ(a.objects, b.objects) << context << " load " << l;
    EXPECT_EQ(a.pages, b.pages) << context << " load " << l;
  }
}

TEST(ToLoadTraces, SeededRoundTripIsLossless) {
  // to_load_traces(parse(to_csv(x))) == x for every field, whatever bytes
  // the text fields hold and whatever doubles the metrics hold — so the
  // views rendered from the CSV are the in-run views.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng{seed};
    const std::vector<LoadTrace> loads = random_loads(rng);
    const TraceMeta meta{adversarial_text(rng), adversarial_text(rng),
                         static_cast<int>(rng.uniform_int(-1, 99)),
                         rng.next()};
    const std::string csv = to_csv(meta, loads);
    const ParsedTrace trace = parse(csv);
    const std::string context = "seed " + std::to_string(seed);
    EXPECT_EQ(trace.experiment, meta.experiment) << context;
    EXPECT_EQ(trace.cell_label, meta.cell_label) << context;
    EXPECT_EQ(trace.cell_index, meta.cell_index) << context;
    EXPECT_EQ(trace.seed, meta.cell_seed) << context;
    const std::vector<LoadTrace> rebuilt = to_load_traces(trace);
    expect_same_loads(rebuilt, loads, context);
    EXPECT_EQ(to_csv(to_trace_meta(trace), rebuilt), csv) << context;
    EXPECT_EQ(to_chrome_trace(to_trace_meta(trace), rebuilt),
              to_chrome_trace(meta, loads))
        << context;
    EXPECT_EQ(to_har(to_trace_meta(trace), rebuilt), to_har(meta, loads))
        << context;
  }
}

TEST(ToCsv, QuotesOnlyCellsThatNeedIt) {
  Tracer tracer;
  tracer.event(1, Layer::kLink, EventKind::kDrop, -1, 0, 0, 1.0 / 3,
               "a,b\nc");
  tracer.event(2, Layer::kDns, EventKind::kDnsQuery, 0, 0, 0, 0.25,
               "mid\"quote;semi=eq");
  ObjectRecord& object = tracer.object(0, "http://site.test/?a=1");
  object.kind = "k;ind";
  object.error = "reset, twice";
  const std::vector<LoadTrace> loads{LoadTrace{0, tracer.take()},
                                     LoadTrace{1, {}}};
  const std::string csv = to_csv(TraceMeta{"my exp", "x,y", 1, 2}, loads);
  std::istringstream lines{csv};
  std::string line;
  std::vector<std::string> all;
  while (std::getline(lines, line)) {
    all.push_back(line);
  }
  ASSERT_EQ(all.size(), 7u) << csv;
  EXPECT_EQ(all[0],
            "# mahimahi-obs-trace-v1 experiment=\"my exp\" cell=1 label=x,y "
            "seed=2");
  // Shortest round-trip digits where %.6f would round; RFC 4180 quotes
  // around a cell with a comma or a line break.
  EXPECT_EQ(all[2], "0,-1,1,link,drop,0,0,0.3333333333333333,\"a,b");
  EXPECT_EQ(all[3], "c\",");
  // %.6f where it reads back; a quote inside a cell needs no quoting.
  EXPECT_EQ(all[4], "0,0,2,dns,query,0,0,0.250000,mid\"quote;semi=eq,");
  // The detail cell quotes the kind (it holds ';'), then the whole cell
  // (the error holds ','); fetch_start -1 stays -1.
  EXPECT_EQ(all[5],
            "0,0,-1,browser,object,0,0,0.000000,http://site.test/?a=1,"
            "\"kind=\"\"k;ind\"\";status=0;attempts=1;failed=0;"
            "dns_start_us=-1;dns_done_us=-1;connect_us=-1;request_us=-1;"
            "first_byte_us=-1;complete_us=-1;error=reset, twice\"");
  // A load with nothing traced keeps its place.
  EXPECT_EQ(all[6], "1,0,0,runner,empty-load,0,0,0.000000,,");
}

TEST(DetailHelpers, ReadQuotedValues) {
  const std::string detail =
      "kind=\"a;b\";status=200;error=\"say \"\"hi\"\"; then=bye\"";
  EXPECT_EQ(detail_field(detail, "kind"), "a;b");
  EXPECT_EQ(detail_field(detail, "status"), "200");
  EXPECT_EQ(detail_field(detail, "error"), "say \"hi\"; then=bye");
  EXPECT_EQ(detail_field(detail, "then"), "");
}

TEST(ParseTrace, RejectsNonNumericNumberCells) {
  // Every numeric cell must be a whole number (or a double, for metric):
  // a row of words is an error, not a row of zeros.
  const std::string head =
      "# mahimahi-obs-trace-v1 experiment=e cell=0 label=l seed=1\n"
      "load,session,t_us,layer,kind,flow,value,metric,label,detail\n";
  for (const char* row : {"zero,0,1,link,drop,0,0,0.000000,up,",
                          "0,x,1,link,drop,0,0,0.000000,up,",
                          "0,0,soon,link,drop,0,0,0.000000,up,",
                          "0,0,1,link,drop,-1,0,0.000000,up,",
                          "0,0,1,link,drop,0,7b,0.000000,up,",
                          "0,0,1,link,drop,0,0,,up,",
                          "0,0,1,link,drop,0,0,1.5x,up,"}) {
    std::istringstream in{head + row + "\n"};
    std::string error;
    EXPECT_FALSE(parse_trace_csv(in, &error).has_value()) << row;
    EXPECT_NE(error.find("malformed number"), std::string::npos) << error;
  }
}

TEST(ParseTrace, RejectsAnUnterminatedQuotedCell) {
  std::istringstream in{
      "# mahimahi-obs-trace-v1 experiment=e cell=0 label=l seed=1\n"
      "load,session,t_us,layer,kind,flow,value,metric,label,detail\n"
      "0,0,1,link,drop,0,0,0.000000,\"never closed,\n"};
  std::string error;
  EXPECT_FALSE(parse_trace_csv(in, &error).has_value());
  EXPECT_NE(error.find("malformed row"), std::string::npos) << error;
}

TEST(ParseTrace, AStrayQuoteFailsInOnePassOverTheInput) {
  // A cell that opens a quote and never closes it swallows every row after
  // it. Re-splitting the growing record on each line would take time
  // quadratic in the rows left (tens of seconds here); one pass takes
  // milliseconds.
  constexpr int kRows = 200'000;
  std::string csv =
      "# mahimahi-obs-trace-v1 experiment=e cell=0 label=l seed=1\n"
      "load,session,t_us,layer,kind,flow,value,metric,label,detail\n"
      "0,0,1,link,drop,0,0,0.000000,\"stray,\n";
  for (int row = 0; row < kRows; ++row) {
    csv += "0,0,2,link,enqueue,0,3,4500.000000,uplink,\n";
  }
  std::istringstream in{csv};
  std::string error;
  const auto started = std::chrono::steady_clock::now();
  EXPECT_FALSE(parse_trace_csv(in, &error).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(error, "malformed row: 0,0,1,link,drop,0,0,0.000000,\"stray,");
  EXPECT_LT(elapsed, std::chrono::seconds{10});
}

TEST(ParseTrace, AQuotedCellMaySpanManyLines) {
  // The record is complete once a later line closes the value.
  std::istringstream in{
      "# mahimahi-obs-trace-v1 experiment=e cell=0 label=l seed=1\n"
      "load,session,t_us,layer,kind,flow,value,metric,label,detail\n"
      "0,0,1,link,drop,0,0,0.000000,\"a\n\"\"b\n\nc\",\"d\ne\"\n"
      "0,0,2,link,drop,0,0,0.000000,f,\n"};
  const auto trace = parse_trace_csv(in);
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->rows.size(), 2u);
  EXPECT_EQ(trace->rows[0].label, "a\n\"b\n\nc");
  EXPECT_EQ(trace->rows[0].detail, "d\ne");
  EXPECT_EQ(trace->rows[1].label, "f");
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
