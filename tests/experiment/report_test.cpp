// Well-formedness of the experiment report's JSON writers: every string
// field, control bytes included, must come back from a strict JSON parse
// exactly as it went in.

#include "experiment/report.hpp"

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace mahimahi::experiment {
namespace {

using util::JsonValue;

Report report_with_awkward_strings() {
  Report report;
  report.name = "ctl\x01name \"quoted\" \\ tab\t";
  report.seed = 7;
  report.loads_per_cell = 2;
  report.total_cells = 1;
  report.fault_axis = true;
  CellResult cell;
  cell.site = "site\x1f";
  cell.protocol = "http11";
  cell.shell = "cable";
  cell.queue = "fifo";
  cell.cc = "reno";
  cell.fleet = "solo";
  cell.fault = "crash\n";
  cell.plt_ms.add(12.5);
  cell.degraded_plt_ms.add(12.5);
  cell.load_errors = {"worker \x02threw: \"boom\"", "second\r\nerror"};
  cell.probe_ran = true;
  cell.flows.push_back(FlowResult{"cu\x7f" "bic", 100, 8e3, 1.0, 0});
  cell.metrics_json = R"({"counters": {}, "gauges": {}, "histograms": {}})";
  report.cells.push_back(cell);
  return report;
}

TEST(ReportJson, ControlBytesSurviveAStrictParse) {
  const Report report = report_with_awkward_strings();
  const JsonValue root = util::parse_json(report.to_json());
  EXPECT_EQ(root.find("name")->string, report.name);
  const JsonValue& cell = root.find("cells")->array.at(0);
  EXPECT_EQ(cell.find("site")->string, "site\x1f");
  EXPECT_EQ(cell.find("fault")->string, "crash\n");
  const JsonValue* errors = cell.find("load_errors");
  ASSERT_NE(errors, nullptr);
  ASSERT_EQ(errors->array.size(), 2u);
  EXPECT_EQ(errors->array[0].string, report.cells[0].load_errors[0]);
  EXPECT_EQ(errors->array[1].string, report.cells[0].load_errors[1]);
  EXPECT_EQ(cell.find("probe")->find("flows")->array.at(0).find("cc")->string,
            "cu\x7f" "bic");
  EXPECT_EQ(cell.find("metrics")->type, JsonValue::Type::kObject);
}

TEST(ReportJson, BenchRowsParseWithTheirNames) {
  const Report report = report_with_awkward_strings();
  const JsonValue root = util::parse_json(report.to_bench_json());
  const JsonValue& rows = *root.find("benchmarks");
  ASSERT_FALSE(rows.array.empty());
  EXPECT_EQ(rows.array[0].find("name")->string.rfind("exp_plt_median/site\x1f",
                                                     0),
            0u);
}

CellResult row_with(std::vector<double> plts) {
  CellResult row;
  row.plt_ms = util::Samples{std::move(plts)};
  return row;
}

Claim make_claim(Claim::Stat stat, const std::string& vs, Claim::Bound bound,
                 double limit) {
  return Claim{std::string{"c"}, stat, std::string{"a"}, vs, bound, limit};
}

TEST(Claims, StatisticsBoundsAndVerdicts) {
  const CellResult a = row_with({110, 220, 330});
  const CellResult b = row_with({100, 200, 300});
  using Stat = Claim::Stat;
  using Bound = Claim::Bound;
  // One cell: a plain statistic in ms.
  ClaimResult r =
      evaluate_claim(make_claim(Stat::kMean, "", Bound::kAtMost, 220), &a,
                     nullptr);
  EXPECT_DOUBLE_EQ(r.value, 220);
  EXPECT_EQ(r.unit, ClaimResult::Unit::kMs);
  EXPECT_EQ(r.status, ClaimResult::Status::kPass);
  // vs: the % difference of the statistic, relative to the vs cell.
  r = evaluate_claim(make_claim(Stat::kMedian, "b", Bound::kAtLeast, 10.5),
                     &a, &b);
  EXPECT_DOUBLE_EQ(r.value, 10);
  EXPECT_EQ(r.unit, ClaimResult::Unit::kPercent);
  EXPECT_EQ(r.status, ClaimResult::Status::kFail);
  EXPECT_STREQ(r.status_name(), "fail");
  // within bounds |value|.
  r = evaluate_claim(make_claim(Stat::kMedian, "b", Bound::kWithin, 10), &b,
                     &a);
  EXPECT_NEAR(r.value, -9.0909, 1e-3);
  EXPECT_EQ(r.status, ClaimResult::Status::kPass);
  // Paired: percentiles of the per-load differences (all +10% here).
  r = evaluate_claim(make_claim(Stat::kPairedP95, "b", Bound::kNone, 0), &a,
                     &b);
  EXPECT_NEAR(r.value, 10, 1e-9);
  EXPECT_EQ(r.status, ClaimResult::Status::kUnbounded);
  // Outside the shard: skipped, no value.
  r = evaluate_claim(make_claim(Stat::kMedian, "b", Bound::kAtMost, 1), &a,
                     nullptr);
  EXPECT_EQ(r.status, ClaimResult::Status::kSkipped);
}

TEST(Claims, MissingOrMisalignedSamplesFailEvenUnbounded) {
  const CellResult a = row_with({110, 220, 330});
  const CellResult short_row = row_with({100, 200});
  const CellResult empty = row_with({});
  EXPECT_EQ(evaluate_claim(make_claim(Claim::Stat::kPairedP50, "b",
                                      Claim::Bound::kNone, 0),
                           &a, &short_row)
                .status,
            ClaimResult::Status::kFail);
  EXPECT_EQ(evaluate_claim(make_claim(Claim::Stat::kCv, "",
                                      Claim::Bound::kNone, 0),
                           &empty, nullptr)
                .status,
            ClaimResult::Status::kFail);
}

/// A one-load cell with a probe of two flows and resilience counts.
CellResult probed_row(double queue_p95_ms, double bps_a, double bps_b,
                      std::uint64_t objects_failed, std::size_t failed_loads,
                      std::uint64_t retries) {
  CellResult row = row_with({1000});
  row.probe_ran = true;
  row.queue_delay_p95_ms = queue_p95_ms;
  row.flows = {FlowResult{"cubic", 0, bps_a, 0.5, 0},
               FlowResult{"bbr", 0, bps_b, 0.5, 0}};
  row.objects_failed = objects_failed;
  row.failed_loads = failed_loads;
  row.retries = retries;
  return row;
}

TEST(Claims, ProbeAndCountStatisticsInTheirOwnUnits) {
  using Stat = Claim::Stat;
  using Bound = Claim::Bound;
  const CellResult a = probed_row(40, 3e6, 1e6, 3, 1, 20);
  const CellResult b = probed_row(160, 1e6, 1e6, 12, 4, 0);
  struct Case {
    Stat stat;
    double value;
    ClaimResult::Unit unit;
  };
  for (const Case& c :
       {Case{Stat::kQueueP95, 40, ClaimResult::Unit::kMs},
        Case{Stat::kThroughput, 4, ClaimResult::Unit::kMbps},
        Case{Stat::kObjectsFailed, 3, ClaimResult::Unit::kCount},
        Case{Stat::kFailedLoads, 1, ClaimResult::Unit::kCount},
        Case{Stat::kRetries, 20, ClaimResult::Unit::kCount}}) {
    const ClaimResult r =
        evaluate_claim(make_claim(c.stat, "", Bound::kNone, 0), &a, nullptr);
    EXPECT_DOUBLE_EQ(r.value, c.value);
    EXPECT_EQ(r.unit, c.unit);
    EXPECT_EQ(r.status, ClaimResult::Status::kUnbounded);
  }
  // vs: the % difference against the vs cell, whatever the statistic.
  ClaimResult r = evaluate_claim(
      make_claim(Stat::kQueueP95, "b", Bound::kBelow, 0), &a, &b);
  EXPECT_DOUBLE_EQ(r.value, -75);
  EXPECT_EQ(r.unit, ClaimResult::Unit::kPercent);
  EXPECT_EQ(r.status, ClaimResult::Status::kPass);
  r = evaluate_claim(make_claim(Stat::kThroughput, "b", Bound::kAbove, 0),
                     &a, &b);
  EXPECT_DOUBLE_EQ(r.value, 100);
  EXPECT_EQ(r.status, ClaimResult::Status::kPass);
  r = evaluate_claim(make_claim(Stat::kObjectsFailed, "b", Bound::kBelow, 0),
                     &a, &b);
  EXPECT_DOUBLE_EQ(r.value, -75);
  EXPECT_EQ(r.status, ClaimResult::Status::kPass);
  r = evaluate_claim(make_claim(Stat::kRetries, "", Bound::kAbove, 0), &b,
                     nullptr);
  EXPECT_EQ(r.status, ClaimResult::Status::kFail);
}

TEST(Claims, StrictBoundsFailAtEquality) {
  using Bound = Claim::Bound;
  const CellResult a = probed_row(40, 1e6, 1e6, 0, 0, 0);
  const auto status = [&](Claim::Stat stat, Bound bound, double limit) {
    return evaluate_claim(make_claim(stat, "", bound, limit), &a, nullptr)
        .status;
  };
  for (const Claim::Stat stat :
       {Claim::Stat::kMedian, Claim::Stat::kObjectsFailed}) {
    const double at = stat == Claim::Stat::kMedian ? 1000 : 0;
    EXPECT_EQ(status(stat, Bound::kAtMost, at), ClaimResult::Status::kPass);
    EXPECT_EQ(status(stat, Bound::kAtLeast, at), ClaimResult::Status::kPass);
    EXPECT_EQ(status(stat, Bound::kBelow, at), ClaimResult::Status::kFail);
    EXPECT_EQ(status(stat, Bound::kAbove, at), ClaimResult::Status::kFail);
    EXPECT_EQ(status(stat, Bound::kBelow, at + 1), ClaimResult::Status::kPass);
    EXPECT_EQ(status(stat, Bound::kAbove, at - 1), ClaimResult::Status::kPass);
  }
}

TEST(Claims, ProbeStatisticWithoutAProbeFailsNeverReadsZero) {
  CellResult unprobed = probed_row(0, 0, 0, 0, 0, 0);
  unprobed.probe_ran = false;
  unprobed.flows.clear();
  const CellResult probed = probed_row(40, 1e6, 1e6, 0, 0, 0);
  for (const Claim::Stat stat :
       {Claim::Stat::kQueueP95, Claim::Stat::kThroughput}) {
    // Unprobed: 0 would satisfy "<= 0", yet the claim fails.
    EXPECT_EQ(evaluate_claim(make_claim(stat, "", Claim::Bound::kAtMost, 0),
                             &unprobed, nullptr)
                  .status,
              ClaimResult::Status::kFail);
    EXPECT_EQ(evaluate_claim(make_claim(stat, "b", Claim::Bound::kNone, 0),
                             &probed, &unprobed)
                  .status,
              ClaimResult::Status::kFail);
  }
}

TEST(Claims, VsZeroBaseFails) {
  // A percentage against nothing is undefined: a zero base fails, bounded
  // or not, for counts as for PLT.
  const CellResult some = probed_row(40, 1e6, 1e6, 5, 1, 3);
  const CellResult none = probed_row(40, 1e6, 1e6, 0, 0, 0);
  for (const Claim::Stat stat :
       {Claim::Stat::kObjectsFailed, Claim::Stat::kFailedLoads,
        Claim::Stat::kRetries}) {
    const ClaimResult r = evaluate_claim(
        make_claim(stat, "b", Claim::Bound::kNone, 0), &some, &none);
    EXPECT_EQ(r.status, ClaimResult::Status::kFail);
    EXPECT_DOUBLE_EQ(r.value, 0);
  }
  const CellResult zero_plt = row_with({0});
  EXPECT_EQ(evaluate_claim(make_claim(Claim::Stat::kMedian, "b",
                                      Claim::Bound::kNone, 0),
                           &some, &zero_plt)
                .status,
            ClaimResult::Status::kFail);
}

TEST(ReportJson, ClaimsParseBack) {
  Report report = report_with_awkward_strings();
  report.claims.push_back(
      ClaimResult{"over\"head", "median a vs b <= 1",
                  ClaimResult::Status::kPass, 0.25,
                  ClaimResult::Unit::kPercent});
  report.claims.push_back(ClaimResult{"far", "median c",
                                      ClaimResult::Status::kSkipped, 0});
  const JsonValue root = util::parse_json(report.to_json());
  const JsonValue& claims = *root.find("claims");
  ASSERT_EQ(claims.array.size(), 2u);
  EXPECT_EQ(claims.array[0].find("name")->string, "over\"head");
  EXPECT_DOUBLE_EQ(claims.array[0].find("value")->number, 0.25);
  EXPECT_EQ(claims.array[0].find("status")->string, "pass");
  EXPECT_EQ(claims.array[1].find("value"), nullptr);
  EXPECT_EQ(claims.array[1].find("status")->string, "skipped");
}

}  // namespace
}  // namespace mahimahi::experiment
