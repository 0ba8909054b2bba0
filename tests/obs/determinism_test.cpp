// The exported-artifact determinism contract, end to end through the
// experiment engine: for a fixed spec, the bytes of every per-cell trace
// CSV, and of the Chrome trace JSON and HAR rendered from it, are
// identical at any thread count and across shard splits — including chaos
// (fault-ladder) and fleet (shared-world mux) cells. Also pins that
// turning tracing on does not perturb the measurements themselves.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_runner.hpp"
#include "experiment/runner.hpp"
#include "fault/fault.hpp"
#include "obs/trace_views.hpp"

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

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "obs-unit";
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
  return spec;
}

/// small_spec() plus a chaos cell: every fault injector active, client
/// defended — the hardest case for trace determinism (retries, timeouts,
/// injected events).
ExperimentSpec chaos_spec() {
  ExperimentSpec spec = small_spec();
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

using obs::expect_identical_views;

TEST(ObsDeterminism, ArtifactsByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = chaos_spec();
  core::ParallelRunner one{1};
  core::ParallelRunner eight{8};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  options_one.trace_dir = fresh_dir("obs-threads-1").string();
  RunOptions options_eight = options_one;
  options_eight.runner = &eight;
  options_eight.trace_dir = fresh_dir("obs-threads-8").string();

  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_eight);
  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_EQ(a.cells.size(), 2u);
  expect_identical_views(options_one.trace_dir, options_eight.trace_dir,
                         {0, 1});
  // The chaos cell really exercised the fault path, and its injections
  // landed in the trace.
  EXPECT_GT(a.cells[1].retries + a.cells[1].timeouts +
                a.cells[1].objects_failed,
            0u);
  const std::string csv =
      read_file(fs::path{options_one.trace_dir} / "cell1.csv");
  EXPECT_NE(csv.find(",fault,injected,"), std::string::npos);
}

TEST(ObsDeterminism, FleetArtifactsByteIdenticalAcrossThreadCounts) {
  // A shared-world mux is one indivisible simulation tracing into one
  // buffer; sessions are told apart by their global fleet index.
  ExperimentSpec spec = small_spec();
  spec.fleets = {FleetAxis{"crowd", 3, 10'000}};
  core::ParallelRunner one{1};
  core::ParallelRunner eight{8};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  options_one.trace_dir = fresh_dir("obs-fleet-1").string();
  RunOptions options_eight = options_one;
  options_eight.runner = &eight;
  options_eight.trace_dir = fresh_dir("obs-fleet-8").string();

  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_eight);
  EXPECT_EQ(a.to_json(), b.to_json());
  expect_identical_views(options_one.trace_dir, options_eight.trace_dir,
                         {0});
  // All three sessions appear as distinct streams, plus shared infra (-1).
  const std::string csv =
      read_file(fs::path{options_one.trace_dir} / "cell0.csv");
  for (const char* prefix : {"\n0,-1,", "\n0,0,", "\n0,1,", "\n0,2,"}) {
    EXPECT_NE(csv.find(prefix), std::string::npos)
        << "stream " << prefix << " missing from the fleet trace";
  }
}

TEST(ObsDeterminism, ShardSplitsReproduceTheUnshardedArtifacts) {
  const ExperimentSpec spec = chaos_spec();
  RunOptions full_options;
  full_options.transport_probes = false;
  full_options.trace_dir = fresh_dir("obs-full").string();
  const Report full = run_experiment(spec, full_options);
  ASSERT_EQ(full.cells.size(), 2u);

  // Each shard writes only its own cells; the artifacts use global cell
  // indices, so the two shard dirs jointly hold the full run's files.
  const fs::path shard_dir = fresh_dir("obs-shards");
  for (int shard = 0; shard < 2; ++shard) {
    RunOptions options;
    options.transport_probes = false;
    options.shard_count = 2;
    options.shard_index = shard;
    options.trace_dir = shard_dir.string();
    run_experiment(spec, options);
  }
  expect_identical_views(full_options.trace_dir, shard_dir, {0, 1});
}

TEST(ObsDeterminism, TracingDoesNotPerturbTheReport) {
  const ExperimentSpec spec = chaos_spec();
  RunOptions untraced;
  untraced.transport_probes = false;
  RunOptions traced = untraced;
  traced.trace_dir = fresh_dir("obs-perturb").string();
  const Report a = run_experiment(spec, untraced);
  const Report b = run_experiment(spec, traced);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

}  // namespace
}  // namespace mahimahi::experiment
