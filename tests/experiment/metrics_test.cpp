// The derived-metrics contract through the experiment engine: the
// per-cell "metrics" report block is byte-identical at any thread count
// and across shard splits, appears only when asked for, derives the same
// with or without trace artifacts on disk, is finalized per cell before
// the cell counts as done — and the wall-clock profiler, which observes
// these same runs, perturbs none of their bytes.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_runner.hpp"
#include "experiment/runner.hpp"
#include "fault/fault.hpp"
#include "obs/profile.hpp"

namespace mahimahi::experiment {
namespace {

namespace fs = std::filesystem;

SiteAxis tiny_site() {
  SiteAxis axis;
  axis.label = "tiny";
  axis.site.name = "tiny";
  axis.site.seed = 7;
  axis.site.server_count = 3;
  axis.site.object_count = 8;
  axis.site.size_scale = 0.25;
  return axis;
}

/// One healthy and one chaos cell — retries and failures are where the
/// fault-recovery and burst metrics earn their keep.
ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "metrics-unit";
  spec.seed = 99;
  spec.loads_per_cell = 2;
  spec.sites = {tiny_site()};
  spec.protocols = {web::AppProtocol::kHttp11};
  ShellAxis cable;
  cable.label = "cable";
  ShellLayerSpec delay;
  delay.kind = ShellLayerSpec::Kind::kDelay;
  delay.delay_one_way = 10'000;
  ShellLayerSpec link;
  link.kind = ShellLayerSpec::Kind::kLink;
  link.up_mbps = 8;
  link.down_mbps = 8;
  cable.layers = {delay, link};
  spec.shells = {cable};
  spec.queues = {QueueAxis{"fifo", net::QueueSpec{}}};
  spec.ccs = {CcAxis{"reno", {"reno"}}};
  FaultAxis chaos;
  chaos.label = "chaos";
  chaos.fault = fault::parse_fault_spec(
      "crash:p=0.3 retry:deadline=2s,max=3,base=100ms,cap=1s");
  spec.faults = {FaultAxis{}, chaos};
  return spec;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in) << "missing artifact " << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / name;
  fs::remove_all(dir);
  return dir;
}

TEST(ExperimentMetrics, BlockAppearsOnlyWhenEnabled) {
  const ExperimentSpec spec = small_spec();
  RunOptions plain;
  plain.transport_probes = false;
  RunOptions with_metrics = plain;
  with_metrics.metrics = true;
  const Report off = run_experiment(spec, plain);
  const Report on = run_experiment(spec, with_metrics);
  EXPECT_EQ(off.to_json().find("\"metrics\""), std::string::npos);
  EXPECT_NE(on.to_json().find("\"metrics\""), std::string::npos);
  for (const CellResult& cell : off.cells) {
    EXPECT_TRUE(cell.metrics_json.empty());
  }
  for (const CellResult& cell : on.cells) {
    EXPECT_FALSE(cell.metrics_json.empty());
    // The inline block is the schema-less {counters, gauges, histograms}
    // object (the report's own schema field covers the row).
    EXPECT_NE(cell.metrics_json.find("\"counters\""), std::string::npos);
    EXPECT_NE(cell.metrics_json.find("plt.share.receive"), std::string::npos);
  }
  // CSV and bench exports never carry the block — only the JSON report.
  EXPECT_EQ(on.to_csv(), off.to_csv());
  EXPECT_EQ(on.to_bench_json(), off.to_bench_json());
}

TEST(ExperimentMetrics, ByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = small_spec();
  core::ParallelRunner one{1};
  core::ParallelRunner eight{8};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  options_one.metrics = true;
  RunOptions options_eight = options_one;
  options_eight.runner = &eight;
  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_eight);
  EXPECT_EQ(a.to_json(), b.to_json());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].metrics_json, b.cells[i].metrics_json);
  }
}

TEST(ExperimentMetrics, ShardRowsMatchTheUnshardedBlocks) {
  const ExperimentSpec spec = small_spec();
  RunOptions full_options;
  full_options.transport_probes = false;
  full_options.metrics = true;
  const Report full = run_experiment(spec, full_options);
  std::vector<CellResult> stitched;
  for (int shard = 0; shard < 2; ++shard) {
    RunOptions options = full_options;
    options.shard_count = 2;
    options.shard_index = shard;
    for (CellResult& cell : run_experiment(spec, options).cells) {
      stitched.push_back(std::move(cell));
    }
  }
  ASSERT_EQ(stitched.size(), full.cells.size());
  for (const CellResult& row : full.cells) {
    bool matched = false;
    for (const CellResult& candidate : stitched) {
      if (candidate.index == row.index) {
        matched = candidate.metrics_json == row.metrics_json;
      }
    }
    EXPECT_TRUE(matched) << "cell " << row.index
                         << " metrics diverged under sharding";
  }
}

TEST(ExperimentMetrics, DerivationDoesNotNeedArtifactsOnDisk) {
  // --metrics alone writes nothing; adding --trace-dir must not change
  // the derived numbers (same merged buffers feed both paths).
  const ExperimentSpec spec = small_spec();
  RunOptions memory_only;
  memory_only.transport_probes = false;
  memory_only.metrics = true;
  RunOptions with_artifacts = memory_only;
  const fs::path traces = fresh_dir("metrics-traces");
  with_artifacts.trace_dir = traces.string();
  const Report a = run_experiment(spec, memory_only);
  const Report b = run_experiment(spec, with_artifacts);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_TRUE(fs::exists(traces / "cell0.csv"));
}

TEST(ExperimentMetrics, ProfilerPerturbsNothing) {
  // --profile is observation only: with the profiler hot, every
  // determinism-checked byte — report JSON, metrics blocks, trace
  // artifacts — matches a cold run exactly.
  const ExperimentSpec spec = small_spec();
  RunOptions cold;
  cold.transport_probes = false;
  cold.metrics = true;
  const fs::path cold_dir = fresh_dir("profile-cold");
  cold.trace_dir = cold_dir.string();
  RunOptions hot = cold;
  const fs::path hot_dir = fresh_dir("profile-hot");
  hot.trace_dir = hot_dir.string();

  obs::Profiler::enable(false);
  obs::Profiler::reset();
  const Report quiet = run_experiment(spec, cold);
  EXPECT_TRUE(obs::Profiler::snapshot().empty());

  obs::Profiler::enable(true);
  const Report profiled = run_experiment(spec, hot);
  const auto scopes = obs::Profiler::snapshot();
  obs::Profiler::enable(false);
  obs::Profiler::reset();

  EXPECT_EQ(quiet.to_json(), profiled.to_json());
  for (const char* suffix : {".trace.json", ".har", ".csv"}) {
    for (int cell = 0; cell < 2; ++cell) {
      const std::string name = "cell" + std::to_string(cell) + suffix;
      EXPECT_EQ(read_file(cold_dir / name), read_file(hot_dir / name))
          << name;
    }
  }
  // The profiled run actually recorded the pipeline phases.
  std::vector<std::string> names;
  names.reserve(scopes.size());
  for (const auto& entry : scopes) {
    names.push_back(entry.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "replay"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "metrics"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "export"), names.end());
}

TEST(ExperimentMetrics, CellsAreFinalizedBeforeTheyCountAsDone) {
  // Each cell's metrics and artifacts are produced by the worker that
  // finishes the cell, not in a tail after the whole matrix: whenever a
  // progress tick reports k cells done, k cells' files are already on disk.
  const ExperimentSpec spec = small_spec();
  for (const int threads : {1, 4}) {
    core::ParallelRunner runner{threads};
    const fs::path dir = fresh_dir("finalize-" + std::to_string(threads));
    RunOptions options;
    options.runner = &runner;
    options.transport_probes = false;
    options.metrics = true;
    options.trace_dir = dir.string();
    std::mutex mutex;
    int early_ticks = 0;
    int most_cells = 0;
    options.on_progress = [&](int, int, int cells_done, int) {
      int exported = 0;
      for (int cell = 0; cell < 2; ++cell) {
        exported += fs::exists(dir / ("cell" + std::to_string(cell) + ".csv"))
                        ? 1
                        : 0;
      }
      const std::lock_guard<std::mutex> lock{mutex};
      early_ticks += exported < cells_done ? 1 : 0;
      most_cells = std::max(most_cells, cells_done);
    };
    const Report report = run_experiment(spec, options);
    EXPECT_EQ(early_ticks, 0) << threads << " thread(s)";
    EXPECT_EQ(most_cells, 2) << threads << " thread(s)";
    for (const CellResult& cell : report.cells) {
      EXPECT_FALSE(cell.metrics_json.empty());
    }
  }
}

TEST(ExperimentMetrics, CellFinishedBeforeCancellationKeepsItsBytes) {
  // One worker runs tasks in order, so cancelling at the first finished
  // cell leaves cell 0 complete and cell 1 skipped. Cell 0 was finalized
  // mid-run; its metrics block and artifacts are exactly the clean run's,
  // and the skipped cell still gets its (load-less) artifacts.
  const ExperimentSpec spec = small_spec();
  core::ParallelRunner one{1};
  RunOptions clean;
  clean.runner = &one;
  clean.transport_probes = false;
  clean.metrics = true;
  const fs::path clean_dir = fresh_dir("finalize-clean");
  clean.trace_dir = clean_dir.string();
  const Report full = run_experiment(spec, clean);

  std::atomic<bool> cancel{false};
  RunOptions cut = clean;
  const fs::path cut_dir = fresh_dir("finalize-cut");
  cut.trace_dir = cut_dir.string();
  cut.cancel = &cancel;
  cut.on_progress = [&](int, int, int cells_done, int) {
    if (cells_done > 0) {
      cancel.store(true);
    }
  };
  const Report partial = run_experiment(spec, cut);
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.cells[0].loads_done, 2);
  EXPECT_EQ(partial.cells[1].loads_done, 0);
  EXPECT_EQ(partial.cells[0].metrics_json, full.cells[0].metrics_json);
  for (const char* suffix : {".trace.json", ".har", ".csv"}) {
    const std::string name = std::string{"cell0"} + suffix;
    EXPECT_EQ(read_file(cut_dir / name), read_file(clean_dir / name)) << name;
    EXPECT_TRUE(fs::exists(cut_dir / (std::string{"cell1"} + suffix)));
  }
}

}  // namespace
}  // namespace mahimahi::experiment
