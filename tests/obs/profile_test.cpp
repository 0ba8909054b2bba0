// Tests for the wall-clock profiler: disabled scopes are no-ops, enabled
// scopes aggregate by name with self-time excluding children, and the
// snapshot/report/json surfaces are deterministic in layout (sorted names).

#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "util/json.hpp"

namespace mahimahi::obs {
namespace {

// The profiler is process-global state; every test starts from a clean,
// disabled slate.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::enable(false);
    Profiler::reset();
  }
  void TearDown() override {
    Profiler::enable(false);
    Profiler::reset();
  }
};

TEST_F(ProfileTest, DisabledScopesRecordNothing) {
  {
    MAHI_PROFILE("record");
    MAHI_PROFILE("replay");
  }
  EXPECT_TRUE(Profiler::snapshot().empty());
  EXPECT_EQ(Profiler::to_json().find("\"name\""), std::string::npos);
}

TEST_F(ProfileTest, ScopesAggregateByName) {
  Profiler::enable(true);
  for (int i = 0; i < 3; ++i) {
    MAHI_PROFILE("replay");
  }
  {
    MAHI_PROFILE("export");
  }
  const auto entries = Profiler::snapshot();
  ASSERT_EQ(entries.size(), 2u);
  // Sorted by name — the layout determinism the report/json rely on.
  EXPECT_EQ(entries[0].name, "export");
  EXPECT_EQ(entries[1].name, "replay");
  EXPECT_EQ(entries[0].count, 1u);
  EXPECT_EQ(entries[1].count, 3u);
}

TEST_F(ProfileTest, SelfTimeExcludesNestedScopes) {
  Profiler::enable(true);
  {
    MAHI_PROFILE("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      MAHI_PROFILE("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  const auto entries = Profiler::snapshot();
  ASSERT_EQ(entries.size(), 2u);
  const auto& inner = entries[0];
  const auto& outer = entries[1];
  ASSERT_EQ(inner.name, "inner");
  ASSERT_EQ(outer.name, "outer");
  // outer's total covers inner; its self time does not.
  EXPECT_GE(outer.total_ns, inner.total_ns);
  EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
  EXPECT_EQ(inner.self_ns, inner.total_ns);
}

TEST_F(ProfileTest, ReportAndJsonCarryEveryScope) {
  Profiler::enable(true);
  {
    MAHI_PROFILE("metrics");
  }
  const std::string report = Profiler::report();
  EXPECT_NE(report.find("profile (wall clock)"), std::string::npos);
  EXPECT_NE(report.find("metrics"), std::string::npos);
  const std::string json = Profiler::to_json();
  EXPECT_NE(json.find("\"schema\": \"mahimahi-profile-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\""), std::string::npos);
}

TEST_F(ProfileTest, JsonIsWellFormedForAnyScopeName) {
  Profiler::enable(true);
  {
    ProfileScope scope{"odd \"scope\" \\ \x01name"};
  }
  {
    MAHI_PROFILE("plain");
  }
  const util::JsonValue root = util::parse_json(Profiler::to_json());
  const util::JsonValue& scopes = *root.find("scopes");
  ASSERT_EQ(scopes.array.size(), 2u);
  EXPECT_EQ(scopes.array[0].find("name")->string, "odd \"scope\" \\ \x01name");
  EXPECT_DOUBLE_EQ(scopes.array[0].find("count")->number, 1.0);
  EXPECT_EQ(scopes.array[1].find("name")->string, "plain");
}

TEST_F(ProfileTest, ResetClearsAggregates) {
  Profiler::enable(true);
  {
    MAHI_PROFILE("probe");
  }
  ASSERT_FALSE(Profiler::snapshot().empty());
  Profiler::reset();
  EXPECT_TRUE(Profiler::snapshot().empty());
}

TEST_F(ProfileTest, ScopesCountIndependentlyPerThread) {
  Profiler::enable(true);
  std::thread workers[4];
  for (std::thread& worker : workers) {
    worker = std::thread([] {
      for (int i = 0; i < 100; ++i) {
        MAHI_PROFILE("parallel");
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const auto entries = Profiler::snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].count, 400u);
}

}  // namespace
}  // namespace mahimahi::obs
