// Golden tests for the trace exporters. The HAR output is pinned byte for
// byte against a checked-in file (viewers are strict about field shape);
// the Chrome trace is checked structurally: every event object must carry
// the four fields ("ph", "pid", "tid", "ts") chrome://tracing requires.
// Both JSON exports must parse strictly, whatever bytes their strings hold.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

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

// MAHI_UPDATE_GOLDEN=1 re-pins the goldens from the actual output (then
// still compares — regeneration is explicit, never silent).
void maybe_update_golden(const std::string& path, const std::string& actual) {
  if (std::getenv("MAHI_UPDATE_GOLDEN") == nullptr) {
    return;
  }
  std::ofstream out{path, std::ios::binary};
  out << actual;
}

// A fixture touching every exporter branch: events on shared and
// per-session lanes, a fully-stamped object, a warm-connection object
// (connect -1), a failed object, and both page outcomes.
std::vector<LoadTrace> golden_loads() {
  std::vector<LoadTrace> loads;
  Tracer tracer;
  tracer.event(500, Layer::kLink, EventKind::kEnqueue, -1, 3, 2, 1504.0,
               "uplink");
  tracer.event(900, Layer::kLink, EventKind::kDequeue, -1, 3, 1, 1504.0,
               "uplink");
  tracer.event(1'200, Layer::kTcp, EventKind::kTcpCwndSample, 0, 1, 0,
               14'480.0, "");
  tracer.event(1'500, Layer::kDns, EventKind::kDnsAnswer, 0, 0, 1, 0.25,
               "site.test");
  ObjectRecord& cold = tracer.object(0, "http://site.test/index.html");
  cold.kind = "html";
  cold.fetch_start = 0;
  cold.dns_start = 0;
  cold.dns_done = 400;
  cold.connect_done = 900;
  cold.request_sent = 1'000;
  cold.first_byte = 1'800;
  cold.complete = 2'600;
  cold.bytes = 8'192;
  cold.status = 200;
  ObjectRecord& warm = tracer.object(0, "http://site.test/app.js");
  warm.kind = "js";
  warm.fetch_start = 2'700;
  warm.request_sent = 2'750;
  warm.first_byte = 3'100;
  warm.complete = 3'900;
  warm.bytes = 2'048;
  warm.status = 200;
  ObjectRecord& broken = tracer.object(0, "http://site.test/missing.png");
  broken.kind = "png";
  broken.fetch_start = 2'800;
  broken.request_sent = 2'820;
  broken.complete = 4'000;
  broken.status = 404;
  broken.attempts = 2;
  broken.failed = true;
  broken.error = "http-404";
  tracer.page(PageRecord{0, "http://site.test/", 0, 4'200, 4'500, true});
  loads.push_back(LoadTrace{0, tracer.take()});

  Tracer second;
  second.event(100, Layer::kFault, EventKind::kFaultInjected, 0, 0, 1, 0.0,
               "drop-conn");
  ObjectRecord& only = second.object(0, "http://site.test/index.html");
  only.kind = "html";
  only.fetch_start = 0;
  only.request_sent = 50;
  only.complete = 600;
  only.failed = true;
  only.error = "connect-timeout";
  second.page(PageRecord{0, "http://site.test/", 0, 700, 700, false});
  loads.push_back(LoadTrace{1, second.take()});
  return loads;
}

const TraceMeta kMeta{"export-golden", "fifo+reno", 2, 42};

TEST(ExportGolden, HarMatchesTheCheckedInGolden) {
  const std::string har = to_har(kMeta, golden_loads());
  maybe_update_golden(golden_path("trace.har"), har);
  const std::string golden = read_file(golden_path("trace.har"));
  EXPECT_EQ(har, golden) << "actual HAR:\n" << har;
}

TEST(ExportGolden, ChromeTraceEventsCarryRequiredFields) {
  const util::JsonValue root =
      util::parse_json(to_chrome_trace(kMeta, golden_loads()));
  const util::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t timed = 0;
  for (const util::JsonValue& event : events->array) {
    const util::JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_NE(event.find("pid"), nullptr);
    if (ph->string == "M") {
      continue;  // metadata records (process/thread names) omit "ts"
    }
    ++timed;
    for (const char* field : {"tid", "ts"}) {
      EXPECT_NE(event.find(field), nullptr)
          << "event " << event.find("name")->string << " missing " << field;
    }
  }
  // Fixture has 5 events + 4 objects + 2 pages; make sure the walk
  // actually saw them rather than vacuously passing.
  EXPECT_GE(timed, 11u);
}

TEST(ExportGolden, JsonExportsParseWithControlBytesInStrings) {
  const std::string url = "http://site.test/\x01\"q\"\\\n";
  std::vector<LoadTrace> loads;
  Tracer tracer;
  tracer.event(10, Layer::kLink, EventKind::kEnqueue, -1, 1, 1, 1.0, url);
  tracer.event(20, Layer::kDns, EventKind::kDnsQuery, 0, 0, 0, 0.0, url);
  ObjectRecord& object = tracer.object(0, url);
  object.kind = "k\x1f";
  object.error = "e\r";
  tracer.page(PageRecord{0, url, 0, 100, 100, false});
  loads.push_back(LoadTrace{0, tracer.take()});
  const TraceMeta meta{"exp\x02", "label\t", 0, 1};

  const util::JsonValue chrome =
      util::parse_json(to_chrome_trace(meta, loads));
  EXPECT_EQ(chrome.find("otherData")->find("experiment")->string, "exp\x02");
  const util::JsonValue har = util::parse_json(to_har(meta, loads));
  const util::JsonValue& entry = har.find("log")->find("entries")->array.at(0);
  EXPECT_EQ(entry.find("request")->find("url")->string, url);
  EXPECT_EQ(entry.find("_error")->string, "e\r");
  EXPECT_EQ(har.find("log")->find("pages")->array.at(0).find("title")->string,
            url);
}

TEST(ExportGolden, CsvMatchesTheCheckedInGolden) {
  const std::string csv = to_csv(kMeta, golden_loads());
  maybe_update_golden(golden_path("trace.csv"), csv);
  const std::string golden = read_file(golden_path("trace.csv"));
  EXPECT_EQ(csv, golden) << "actual CSV:\n" << csv;
}

}  // namespace
}  // namespace mahimahi::obs
