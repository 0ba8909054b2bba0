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

}  // namespace
}  // namespace mahimahi::experiment
