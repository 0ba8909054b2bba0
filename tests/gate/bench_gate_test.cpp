#include "gate/bench_gate.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "../../bench/common.hpp"

namespace mahimahi::gate {
namespace {

constexpr const char* kBenchJson = R"({
  "schema": "mahimahi-bench-v1",
  "benchmarks": [
    {"name": "loop_schedule", "ns_per_op": 100.0, "items_per_second": 1e7,
     "bytes_per_second": 0},
    {"name": "fleet_plt_p50_ms", "ns_per_op": 2500000.0,
     "items_per_second": 0, "bytes_per_second": 0}
  ]
})";

Baseline simple_baseline() {
  Baseline baseline;
  baseline.default_tolerance = 0.10;
  baseline.rows = {
      BenchRow{"loop_schedule", 100.0, 1e7, 0},
      BenchRow{"fleet_plt_p50_ms", 2'500'000.0, 0, 0},
  };
  return baseline;
}

TEST(BenchGate, ParsesBenchV1) {
  const std::vector<BenchRow> rows = parse_bench_json(kBenchJson);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "loop_schedule");
  EXPECT_DOUBLE_EQ(rows[0].ns_per_op, 100.0);
  EXPECT_DOUBLE_EQ(rows[0].items_per_second, 1e7);
  EXPECT_EQ(rows[1].name, "fleet_plt_p50_ms");
}

TEST(BenchGate, RejectsWrongSchemaAndMalformedJson) {
  EXPECT_THROW(parse_bench_json(R"({"schema": "other", "benchmarks": []})"),
               std::invalid_argument);
  EXPECT_THROW(parse_bench_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_bench_json("[]"), std::invalid_argument);
  // Deep nesting is a typed error, not a stack overflow.
  EXPECT_THROW(parse_bench_json(std::string(1'000'000, '[')),
               std::invalid_argument);
  EXPECT_THROW(
      parse_bench_json(
          R"({"schema": "mahimahi-bench-v1", "benchmarks": [{"ns_per_op": 1}]})"),
      std::invalid_argument);
}

TEST(BenchGate, IdenticalMeasurementPasses) {
  const GateResult result =
      check(simple_baseline(), parse_bench_json(kBenchJson));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions, 0);
  // loop_schedule compares ns_per_op + items_per_second; the fleet row
  // pins only ns_per_op (its zero counters are "not reported").
  EXPECT_EQ(result.deltas.size(), 3u);
  for (const MetricDelta& delta : result.deltas) {
    EXPECT_EQ(delta.status, MetricStatus::kOk) << delta.row;
  }
}

TEST(BenchGate, InjectedRegressionFails) {
  // The satellite's proof-of-life: a synthetic 30% slowdown on a 10% band
  // must fail the gate, naming the metric that moved.
  std::vector<BenchRow> current = parse_bench_json(kBenchJson);
  current[1].ns_per_op *= 1.30;
  const GateResult result = check(simple_baseline(), current);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.regressions, 1);
  bool found = false;
  for (const MetricDelta& delta : result.deltas) {
    if (delta.row == "fleet_plt_p50_ms" && delta.metric == "ns_per_op") {
      EXPECT_EQ(delta.status, MetricStatus::kRegressed);
      EXPECT_NEAR(delta.change_pct, 30.0, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  const std::string table = format_delta_table(result);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos) << table;
  EXPECT_NE(table.find("fleet_plt_p50_ms"), std::string::npos) << table;
}

TEST(BenchGate, DirectionAwareness) {
  // ns_per_op regresses upward only; items_per_second downward only.
  Baseline baseline = simple_baseline();
  std::vector<BenchRow> faster = parse_bench_json(kBenchJson);
  faster[0].ns_per_op *= 0.5;        // much faster
  faster[0].items_per_second *= 2.0; // much more throughput
  const GateResult good = check(baseline, faster);
  EXPECT_TRUE(good.ok());
  int improved = 0;
  for (const MetricDelta& delta : good.deltas) {
    improved += delta.status == MetricStatus::kImproved ? 1 : 0;
  }
  EXPECT_EQ(improved, 2);

  std::vector<BenchRow> starved = parse_bench_json(kBenchJson);
  starved[0].items_per_second *= 0.5;  // throughput collapse
  const GateResult bad = check(baseline, starved);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.regressions, 1);
}

TEST(BenchGate, PerRowToleranceOverridesAndInformationalRows) {
  Baseline baseline = simple_baseline();
  baseline.tolerances["loop_schedule"] = 0.50;   // loose
  baseline.tolerances["fleet_plt_p50_ms"] = -1;  // informational
  std::vector<BenchRow> current = parse_bench_json(kBenchJson);
  current[0].ns_per_op *= 1.40;  // within the loosened band
  current[1].ns_per_op *= 5.00;  // way off, but informational
  const GateResult result = check(baseline, current);
  EXPECT_TRUE(result.ok()) << format_delta_table(result);
  bool info_seen = false;
  for (const MetricDelta& delta : result.deltas) {
    info_seen |= delta.status == MetricStatus::kInfo;
  }
  EXPECT_TRUE(info_seen);
}

TEST(BenchGate, MissingBenchmarkFailsNewBenchmarkDoesNot) {
  const Baseline baseline = simple_baseline();
  std::vector<BenchRow> current = parse_bench_json(kBenchJson);
  current.erase(current.begin());  // loop_schedule vanished
  current.push_back(BenchRow{"brand_new", 5.0, 0, 0});
  const GateResult result = check(baseline, current);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.missing, 1);
  EXPECT_EQ(result.regressions, 0);
  bool new_seen = false;
  for (const MetricDelta& delta : result.deltas) {
    new_seen |= delta.status == MetricStatus::kNew;
  }
  EXPECT_TRUE(new_seen);
}

TEST(BenchGate, BaselineRoundTripsThroughItsSerialization) {
  Baseline baseline = simple_baseline();
  baseline.tolerances["loop_schedule"] = 0.05;
  baseline.tolerances["fleet_wall_clock"] = -1;
  const std::string json = make_baseline_json(baseline);
  const Baseline reparsed = parse_baseline_json(json);
  EXPECT_DOUBLE_EQ(reparsed.default_tolerance, baseline.default_tolerance);
  ASSERT_EQ(reparsed.rows.size(), baseline.rows.size());
  EXPECT_EQ(reparsed.rows[0].name, baseline.rows[0].name);
  EXPECT_DOUBLE_EQ(reparsed.rows[0].ns_per_op, baseline.rows[0].ns_per_op);
  ASSERT_EQ(reparsed.tolerances.size(), 2u);
  EXPECT_DOUBLE_EQ(reparsed.tolerances.at("loop_schedule"), 0.05);
  EXPECT_LT(reparsed.tolerances.at("fleet_wall_clock"), 0);
  // And the round-trip is a fixed point (refresh diffs stay minimal).
  EXPECT_EQ(make_baseline_json(reparsed), json);
}

TEST(BenchGate, BaselineParserRejectsBadTolerances) {
  EXPECT_THROW(parse_baseline_json(
                   R"({"schema": "mahimahi-bench-baseline-v1",
                       "default_tolerance": 0, "benchmarks": []})"),
               std::invalid_argument);
  EXPECT_THROW(parse_baseline_json(
                   R"({"schema": "mahimahi-bench-baseline-v1",
                       "tolerances": {"a": "tight"}, "benchmarks": []})"),
               std::invalid_argument);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(BenchGate, BaselineEscapesRowAndToleranceNames) {
  Baseline baseline = simple_baseline();
  baseline.rows[0].name = "quoted \"row\" \\ name";
  baseline.tolerances["quoted \"row\" \\ name"] = 0.5;
  const Baseline reparsed = parse_baseline_json(make_baseline_json(baseline));
  EXPECT_EQ(reparsed.rows[0].name, baseline.rows[0].name);
  EXPECT_DOUBLE_EQ(reparsed.tolerances.at(baseline.rows[0].name), 0.5);
}

TEST(BenchGate, CheckedInBaselinesAreSerializationFixedPoints) {
  // Every pinned baseline must survive a --update round trip unchanged, so
  // a refresh diff shows only the values that moved.
  const std::filesystem::path dir =
      std::filesystem::path{MAHI_TEST_SOURCE_DIR} / ".." / "bench" /
      "baselines";
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    if (entry.path().extension() != ".json") {
      continue;
    }
    ++files;
    const std::string text = read_file(entry.path().string());
    EXPECT_EQ(make_baseline_json(parse_baseline_json(text)), text)
        << entry.path();
  }
  EXPECT_GE(files, 6);
}

class ExistingBaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "mahi_gate_baseline.json";
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(ExistingBaselineTest, MissingFileStartsAFreshPin) {
  EXPECT_FALSE(load_existing_baseline(path_).has_value());
}

TEST_F(ExistingBaselineTest, WellFormedFileKeepsItsTolerancePolicy) {
  Baseline baseline = simple_baseline();
  baseline.default_tolerance = 4.0;
  std::ofstream{path_} << make_baseline_json(baseline);
  const auto existing = load_existing_baseline(path_);
  ASSERT_TRUE(existing.has_value());
  EXPECT_DOUBLE_EQ(existing->default_tolerance, 4.0);
}

TEST_F(ExistingBaselineTest, MalformedFileIsRefusedNamingFileAndError) {
  // A stray comma: the refresh must refuse, not fall back to defaults.
  std::string text = make_baseline_json(simple_baseline());
  text.insert(text.find("\"benchmarks\""), ",");
  std::ofstream{path_} << text;
  try {
    (void)load_existing_baseline(path_);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path_), std::string::npos) << message;
    EXPECT_NE(message.find("JSON error at line"), std::string::npos)
        << message;
  }
}

TEST(PerfReport, WritesWellFormedBenchJson) {
  bench::PerfReport report;
  report.add({"BM_Quoted\"Name\"/1", 1255.6, 0, 903009397.25});
  report.add({"BM_Plain", 0.5, 1e7, 0});
  const std::string path = ::testing::TempDir() + "mahi_perf_report.json";
  ASSERT_TRUE(report.write(path));
  const std::vector<BenchRow> rows = load_bench_file(path);
  std::filesystem::remove(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "BM_Quoted\"Name\"/1");
  EXPECT_DOUBLE_EQ(rows[0].bytes_per_second, 903009397.25);
  EXPECT_DOUBLE_EQ(rows[1].ns_per_op, 0.5);
  EXPECT_DOUBLE_EQ(rows[1].items_per_second, 1e7);
}

}  // namespace
}  // namespace mahimahi::gate
