// Golden test for `mm_trace dump --waterfall` rendering, pinning the two
// historically-wrong cases: a zero-duration phase must not blot out its
// successor's columns, and an object that failed early must end its bar at
// its last recorded timestamp instead of stretching to the axis end.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace mahimahi::obs {
namespace {

std::string golden_path(const std::string& name) {
  return std::string{MAHI_TEST_SOURCE_DIR} + "/obs/golden/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// MAHI_UPDATE_GOLDEN=1 re-pins the golden from the actual output (then
// still compares, so a flaky renderer can't silently self-bless).
void maybe_update_golden(const std::string& path, const std::string& actual) {
  if (std::getenv("MAHI_UPDATE_GOLDEN") == nullptr) {
    return;
  }
  std::ofstream out{path, std::ios::binary};
  out << actual;
}

std::vector<TraceRow> waterfall_rows() {
  Tracer tracer;
  // A full-phase object: dns 0-1 ms, connect to 2 ms, request at 3 ms,
  // first byte at 5 ms, complete at 10 ms.
  ObjectRecord& full = tracer.object(0, "http://site.test/index.html");
  full.kind = "html";
  full.fetch_start = 0;
  full.dns_start = 0;
  full.dns_done = 1'000;
  full.connect_done = 2'000;
  full.request_sent = 3'000;
  full.first_byte = 5'000;
  full.complete = 10'000;
  full.bytes = 4'096;
  full.status = 200;
  // Zero-duration dns and connect (cached resolution, warm socket reused
  // at the same instant): the '=' request phase must start immediately —
  // the zero-width phases claim no columns.
  ObjectRecord& zero = tracer.object(1, "http://site.test/cached.css");
  zero.kind = "css";
  zero.fetch_start = 2'000;
  zero.dns_start = 2'000;
  zero.dns_done = 2'000;
  zero.connect_done = 2'000;
  zero.request_sent = 2'000;
  zero.first_byte = 4'000;
  zero.complete = 8'000;
  zero.bytes = 512;
  zero.status = 200;
  // An early failure: dns finished at 1 ms and nothing after — the bar
  // must stop there, not run to the axis end.
  ObjectRecord& dead = tracer.object(2, "http://site.test/broken.js");
  dead.kind = "js";
  dead.fetch_start = 500;
  dead.dns_start = 500;
  dead.dns_done = 1'000;
  dead.attempts = 3;
  dead.failed = true;
  dead.error = "connect-timeout";
  tracer.page(PageRecord{0, "http://site.test/", 0, 12'000, 12'000, true});

  const TraceMeta meta{"waterfall-golden", "cell", 0, 7};
  std::vector<LoadTrace> loads;
  loads.push_back(LoadTrace{0, tracer.take()});
  const std::string csv = to_csv(meta, loads);
  std::istringstream in{csv};
  std::string error;
  const auto parsed = parse_trace_csv(in, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed->rows;
}

TEST(Waterfall, ZeroDurationPhasesClaimNoColumns) {
  const std::string out = render_waterfall(waterfall_rows());
  std::istringstream lines{out};
  std::string line;
  std::getline(lines, line);  // axis header
  std::string full, zero, dead;
  std::getline(lines, full);
  std::getline(lines, zero);
  std::getline(lines, dead);
  ASSERT_NE(full.find("index.html"), std::string::npos);
  ASSERT_NE(zero.find("cached.css"), std::string::npos);
  ASSERT_NE(dead.find("broken.js"), std::string::npos);

  // The cached object's zero-width dns/connect phases paint nothing; its
  // bar opens directly in the request phase.
  EXPECT_EQ(zero.find('-'), std::string::npos);
  EXPECT_EQ(zero.find('+'), std::string::npos);
  const std::size_t bar_open = zero.find('|');
  ASSERT_NE(bar_open, std::string::npos);
  const std::size_t first_mark = zero.find_first_not_of(' ', bar_open + 1);
  EXPECT_EQ(zero[first_mark], '=');
  // The full object still renders every phase.
  for (const char mark : {'-', '+', '=', '#'}) {
    EXPECT_NE(full.find(mark), std::string::npos) << mark;
  }
}

TEST(Waterfall, EarlyFailureEndsAtLastKnownTimestamp) {
  const std::string out = render_waterfall(waterfall_rows());
  std::istringstream lines{out};
  std::string line;
  std::string dead;
  while (std::getline(lines, line)) {
    if (line.find("broken.js") != std::string::npos) {
      dead = line;
    }
  }
  ASSERT_FALSE(dead.empty());
  EXPECT_NE(dead.find('!'), std::string::npos);
  EXPECT_NE(dead.find("FAILED"), std::string::npos);
  EXPECT_NE(dead.find("x3"), std::string::npos);
  // The axis spans 12 ms; the failure's last record is at 1 ms, so its bar
  // must end in the first tenth of the 64 columns.
  const std::size_t bar_open = dead.find('|');
  const std::size_t bang = dead.find('!');
  ASSERT_NE(bar_open, std::string::npos);
  EXPECT_LT(bang - bar_open, 10u);
  // Its printed duration is the recorded 0.5 ms, not the axis extent.
  EXPECT_NE(dead.find("0.5 ms"), std::string::npos);
}

TEST(Waterfall, RenderingMatchesTheGolden) {
  // Byte-for-byte pin of the renderer. An intentional change regenerates
  // with MAHI_UPDATE_GOLDEN=1 ./obs_waterfall_test.
  const std::string out = render_waterfall(waterfall_rows());
  maybe_update_golden(golden_path("waterfall.txt"), out);
  const std::string golden = read_file(golden_path("waterfall.txt"));
  EXPECT_EQ(out, golden) << "actual rendering:\n" << out;
}

}  // namespace
}  // namespace mahimahi::obs
