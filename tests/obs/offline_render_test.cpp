// The one on-disk trace, end to end on real experiment cells: for the
// smoke, chaos and crowd specs at two seeds each, the Chrome trace and HAR
// that `mm_trace export` renders from every cell<i>.csv equal what the
// exporters make of the very trace buffers the run recorded. The journal
// keeps those buffers (a resumed run merges them), so the test reads them
// back from journal.bin.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "experiment/checkpoint.hpp"
#include "experiment/matrix.hpp"
#include "experiment/runner.hpp"
#include "journal/journal.hpp"
#include "obs/analyze.hpp"
#include "obs/export.hpp"

namespace mahimahi::experiment {
namespace {

namespace fs = std::filesystem;

const fs::path kExperimentsDir =
    fs::path{MAHI_TEST_SOURCE_DIR} / ".." / "experiments";

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / name;
  fs::remove_all(dir);
  return dir;
}

/// The journaled trace buffers of a run, by cell index, in load order.
std::map<int, std::vector<obs::LoadTrace>> journaled_traces(
    const fs::path& journal_dir) {
  std::map<int, std::map<int, obs::TraceBuffer>> by_cell;
  for (const std::string& record :
       journal::read_journal_file((journal_dir / "journal.bin").string())
           .records) {
    auto decoded = decode_task_record(record);
    EXPECT_TRUE(decoded.has_value());
    if (decoded.has_value() && !decoded->first.probe) {
      by_cell[decoded->first.cell_index][decoded->first.load_index] =
          std::move(decoded->second.trace);
    }
  }
  std::map<int, std::vector<obs::LoadTrace>> traces;
  for (auto& [cell, loads] : by_cell) {
    for (auto& [load, buffer] : loads) {
      traces[cell].push_back(obs::LoadTrace{load, std::move(buffer)});
    }
  }
  return traces;
}

class OfflineRender : public testing::TestWithParam<const char*> {};

TEST_P(OfflineRender, ViewsFromTheCsvEqualViewsFromTheBuffers) {
  ExperimentSpec spec = load_spec_file(
      (kExperimentsDir / (std::string{GetParam()} + ".mx")).string());
  const std::uint64_t base_seed = spec.seed;
  for (const std::uint64_t seed : {base_seed, base_seed + 1}) {
    spec.seed = seed;
    const std::string name =
        std::string{"offline-"} + GetParam() + "-" + std::to_string(seed);
    RunOptions options;
    options.transport_probes = false;
    options.loads_override = 2;
    options.trace_dir = fresh_dir(name + "-trace").string();
    options.journal_dir = fresh_dir(name + "-journal").string();
    run_experiment(spec, options);

    const auto traces = journaled_traces(options.journal_dir);
    const std::vector<Cell> cells = expand_matrix(spec);
    ASSERT_EQ(traces.size(), cells.size());
    for (const Cell& cell : cells) {
      const std::string context = name + " cell" + std::to_string(cell.index);
      const obs::TraceMeta meta{spec.name, cell.label(), cell.index,
                                cell.cell_seed};
      const std::vector<obs::LoadTrace>& recorded = traces.at(cell.index);
      std::string error;
      const auto parsed = obs::parse_trace_file(
          options.trace_dir + "/cell" + std::to_string(cell.index) + ".csv",
          &error);
      ASSERT_TRUE(parsed.has_value()) << context << ": " << error;
      const std::vector<obs::LoadTrace> rebuilt = obs::to_load_traces(*parsed);
      EXPECT_TRUE(rebuilt == recorded) << context;
      EXPECT_EQ(obs::to_chrome_trace(obs::to_trace_meta(*parsed), rebuilt),
                obs::to_chrome_trace(meta, recorded))
          << context;
      EXPECT_EQ(obs::to_har(obs::to_trace_meta(*parsed), rebuilt),
                obs::to_har(meta, recorded))
          << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, OfflineRender,
                         testing::Values("smoke", "chaos", "crowd"));

}  // namespace
}  // namespace mahimahi::experiment
