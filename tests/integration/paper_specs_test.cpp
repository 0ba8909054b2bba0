// The paper-figure specs (experiments/paper/*.mx) as engine inputs: each
// parses, and its report — claims included — is byte-identical at 1 vs 4
// threads and when sharded two ways. The transport and resilience specs
// (experiments/{cc,faults}.mx) run with their probes and must pass every
// bounded claim. mm_experiment turns a failed bounded claim into exit
// status 1.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>

#include "experiment/runner.hpp"

namespace mahimahi::experiment {
namespace {

const std::filesystem::path kExperimentsDir =
    std::filesystem::path{MAHI_TEST_SOURCE_DIR} / ".." / "experiments";
const std::filesystem::path kPaperDir = kExperimentsDir / "paper";

/// Each cell serialized on its own, keyed by its global index — shard
/// reports carry different headers, so rows are what must match.
std::map<int, std::string> rows_by_index(const Report& report) {
  std::map<int, std::string> rows;
  for (const CellResult& cell : report.cells) {
    Report one;
    one.name = report.name;
    one.cells = {cell};
    rows[cell.index] = one.to_json();
  }
  return rows;
}

class PaperSpec : public testing::TestWithParam<const char*> {};

TEST_P(PaperSpec, ByteIdenticalAcrossThreadsAndShards) {
  const ExperimentSpec spec =
      load_spec_file((kPaperDir / (std::string{GetParam()} + ".mx")).string());
  EXPECT_FALSE(spec.claims.empty());
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options;
  options.transport_probes = false;
  options.loads_override = 4;  // every corpus reaches sites 0-3
  options.runner = &one;
  const Report serial = run_experiment(spec, options);
  options.runner = &four;
  const Report parallel = run_experiment(spec, options);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  ASSERT_EQ(serial.claims.size(), spec.claims.size());

  std::map<int, std::string> stitched;
  for (int shard = 0; shard < 2; ++shard) {
    options.shard_count = 2;
    options.shard_index = shard;
    stitched.merge(rows_by_index(run_experiment(spec, options)));
  }
  EXPECT_EQ(stitched, rows_by_index(serial));
}

INSTANTIATE_TEST_SUITE_P(Paper, PaperSpec,
                         testing::Values("fig2", "fig3", "table1", "table2",
                                         "protocols", "ablation"));

/// Specs whose claims are expected shapes (CUBIC beats Reno on a high-BDP
/// path, retries recover crashed objects, ...): every bounded claim must
/// pass, with the transport probes on since the cc claims read them.
class ShapeSpec : public testing::TestWithParam<const char*> {};

TEST_P(ShapeSpec, BoundedClaimsPassAndReportsAreByteIdentical) {
  const ExperimentSpec spec = load_spec_file(
      (kExperimentsDir / (std::string{GetParam()} + ".mx")).string());
  ASSERT_FALSE(spec.claims.empty());
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options;
  options.loads_override = 2;
  options.runner = &one;
  const Report serial = run_experiment(spec, options);
  options.runner = &four;
  const Report parallel = run_experiment(spec, options);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  ASSERT_EQ(serial.claims.size(), spec.claims.size());
  for (std::size_t i = 0; i < spec.claims.size(); ++i) {
    if (spec.claims[i].bound != Claim::Bound::kNone) {
      EXPECT_EQ(serial.claims[i].status, ClaimResult::Status::kPass)
          << serial.claims[i].name << ": " << serial.claims[i].text << " = "
          << serial.claims[i].value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Experiments, ShapeSpec,
                         testing::Values("cc", "faults"));

/// mm_experiment is built next to this test binary (when tools are on).
std::filesystem::path mm_experiment_path() {
  char self[PATH_MAX] = {};
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  return n > 0 ? std::filesystem::path{std::string{self, self + n}}
                         .parent_path() /
                     "mm_experiment"
               : std::filesystem::path{};
}

int run_tool(const std::string& spec_text, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("mahi_claims_" + name);
  std::filesystem::create_directories(dir);
  std::ofstream{dir / "spec.mx"} << spec_text;
  const std::string command =
      "cd '" + dir.string() + "' && '" + mm_experiment_path().string() +
      "' spec.mx --no-probes > out.txt 2>&1";
  const int status = std::system(command.c_str());
  std::filesystem::remove_all(dir);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(MmExperiment, FailedBoundedClaimExitsOne) {
  if (!std::filesystem::exists(mm_experiment_path())) {
    GTEST_SKIP() << "mm_experiment not built";
  }
  const std::string spec =
      "name claims\nloads 1\nsite wikihow\nshell a delay=5ms\n"
      "shell b delay=50ms\n";
  EXPECT_EQ(run_tool(spec + "claim slower median b vs a >= 0\n", "pass"), 0);
  EXPECT_EQ(run_tool(spec + "claim unbounded median b vs a\n", "print"), 0);
  EXPECT_EQ(run_tool(spec + "claim faster median b vs a <= 0\n", "fail"), 1);
  EXPECT_EQ(run_tool(spec + "claim strict median a vs b < 0\n", "lt"), 0);
  EXPECT_EQ(run_tool(spec + "claim strict median b vs a < 0\n", "ltfail"), 1);
  EXPECT_EQ(run_tool(spec + "claim typo median c vs a <= 0\n", "typo"), 2);
}

}  // namespace
}  // namespace mahimahi::experiment
