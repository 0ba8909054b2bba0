// mm_link_report end to end: text mode over a checked-in mm-link log and
// the --cc reference flows, compared byte for byte against goldens in
// golden/link_report/, plus the exit status of a bad bin width.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

const std::filesystem::path kGoldenDir =
    std::filesystem::path{MAHI_TEST_SOURCE_DIR} / "integration" / "golden" /
    "link_report";

/// mm_link_report is built next to this test binary (when tools are on).
std::filesystem::path tool_path() {
  char self[PATH_MAX] = {};
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  return n > 0 ? std::filesystem::path{std::string{self, self + n}}
                         .parent_path() /
                     "mm_link_report"
               : std::filesystem::path{};
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct ToolRun {
  int status{-1};
  std::string out;
  std::string err;
};

/// Run the tool from the golden directory (so the log's name in the
/// report is the bare file name), capturing stdout and stderr.
ToolRun run_tool(const std::string& args, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mahi_link_report_" + name + "_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  const std::string command = "cd '" + kGoldenDir.string() + "' && '" +
                              tool_path().string() + "' " + args + " > '" +
                              (dir / "out").string() + "' 2> '" +
                              (dir / "err").string() + "'";
  const int status = std::system(command.c_str());
  ToolRun run;
  run.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = read_file(dir / "out");
  run.err = read_file(dir / "err");
  std::filesystem::remove_all(dir);
  return run;
}

class MmLinkReport : public testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(tool_path())) {
      GTEST_SKIP() << "mm_link_report not built";
    }
  }
};

TEST_F(MmLinkReport, TextModeMatchesGoldens) {
  const ToolRun custom = run_tool("sample.log 250", "bins");
  EXPECT_EQ(custom.status, 0) << custom.err;
  EXPECT_EQ(custom.out, read_file(kGoldenDir / "sample_bins_250.txt"));
  const ToolRun fallback = run_tool("sample.log", "default");
  EXPECT_EQ(fallback.status, 0) << fallback.err;
  EXPECT_EQ(fallback.out, read_file(kGoldenDir / "sample.txt"));
}

TEST_F(MmLinkReport, CcModeMatchesGolden) {
  const ToolRun run = run_tool("--cc reno cubic", "cc");
  EXPECT_EQ(run.status, 0) << run.err;
  EXPECT_EQ(run.out, read_file(kGoldenDir / "cc_reno_cubic.txt"));
}

TEST_F(MmLinkReport, BadBinWidthExitsOne) {
  for (const char* bin : {"0", "-5", "abc", "0.5", "99999999999999999999"}) {
    const ToolRun run = run_tool(std::string{"sample.log "} + bin, "bad");
    EXPECT_EQ(run.status, 1) << bin;
    EXPECT_EQ(run.out, "") << bin;
    EXPECT_EQ(run.err.rfind("error: ", 0), 0u) << bin << ": " << run.err;
  }
}

TEST_F(MmLinkReport, UnregisteredControllerExitsTwo) {
  EXPECT_EQ(run_tool("--cc reno,cubic", "unknown").status, 2);
}

}  // namespace
