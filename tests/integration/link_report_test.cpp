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

/// The lines `--cc` prints for one controller's flow (its "flow:" line and
/// the queue summary under it), from the field after the padded
/// controller name on.
std::string flow_block(const std::string& out, const std::string& cc) {
  const std::size_t head = out.find("flow: cc=" + cc + " ");
  if (head == std::string::npos) {
    return "";
  }
  const std::size_t start = out.find_first_not_of(' ', head + 10 + cc.size());
  return out.substr(start, out.find("\n\n", start) - start);
}

TEST_F(MmLinkReport, CcModeMatchesGolden) {
  const ToolRun run = run_tool("--cc reno cubic", "cc");
  EXPECT_EQ(run.status, 0) << run.err;
  EXPECT_EQ(run.out, read_file(kGoldenDir / "cc_reno_cubic.txt"));
}

TEST_F(MmLinkReport, CcModeTellsControllersApart) {
  // The reference flow has to meet loss for loss-based controllers to
  // differ; over a buffer that never fills, reno and cubic print the same
  // window, completion time and queue.
  const ToolRun run = run_tool("--cc reno cubic", "cc");
  ASSERT_EQ(run.status, 0) << run.err;
  const std::string reno = flow_block(run.out, "reno");
  const std::string cubic = flow_block(run.out, "cubic");
  ASSERT_FALSE(reno.empty()) << run.out;
  ASSERT_FALSE(cubic.empty()) << run.out;
  EXPECT_NE(reno.substr(0, reno.find('\n')),
            cubic.substr(0, cubic.find('\n')));
  EXPECT_NE(reno, cubic);
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
