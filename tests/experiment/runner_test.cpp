// End-to-end tests of the experiment engine on a deliberately tiny corpus
// site: matrix execution, thread-count byte-identity of the serialized
// reports (the engine's core contract), sharding, the mixed-CC fairness
// cell, and the paper-figure vocabulary: corpus sites, live-web cells,
// `delay=live` and claims.

#include "experiment/runner.hpp"

#include <gtest/gtest.h>

#include "core/sessions.hpp"

namespace mahimahi::experiment {
namespace {

/// A small site so each page load stays cheap (the real corpus profiles
/// are exercised by the bench drivers and integration tier).
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
  spec.name = "unit";
  spec.seed = 99;
  spec.loads_per_cell = 2;
  spec.probe_duration = 2'000'000;  // 2 s window keeps probes quick
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
  spec.ccs = {CcAxis{"reno", {"reno"}}, CcAxis{"cubic", {"cubic"}}};
  return spec;
}

TEST(ExperimentRunner, RunsEveryCellAndReportsSamples) {
  const Report report = run_experiment(small_spec());
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.total_cells, 2);
  for (const CellResult& cell : report.cells) {
    EXPECT_EQ(cell.plt_ms.size(), 2u);
    EXPECT_EQ(cell.failed_loads, 0u);
    for (const double plt : cell.plt_ms.values()) {
      EXPECT_GT(plt, 0.0);
    }
    ASSERT_TRUE(cell.probe_ran);
    ASSERT_EQ(cell.flows.size(), 1u);
    EXPECT_DOUBLE_EQ(cell.jain_index, 1.0);  // single flow
    EXPECT_NEAR(cell.flows[0].share, 1.0, 1e-12);
  }
  EXPECT_EQ(report.cells[0].cc, "reno");
  EXPECT_EQ(report.cells[1].cc, "cubic");
  // The probe really ran each cell's controller (both fully utilize the
  // clean 8 Mbit/s bottleneck, so byte counts alone cannot tell them
  // apart — the transport-visible difference shows on lossy cells, which
  // experiments/cc.mx's claims cover).
  EXPECT_EQ(report.cells[0].flows[0].controller, "reno");
  EXPECT_EQ(report.cells[1].flows[0].controller, "cubic");
}

TEST(ExperimentRunner, ReportsAreByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = small_spec();
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options_one;
  options_one.runner = &one;
  RunOptions options_four;
  options_four.runner = &four;
  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_four);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_bench_json(), b.to_bench_json());
}

TEST(ExperimentRunner, ShardsPartitionTheMatrixExactly) {
  const ExperimentSpec spec = small_spec();
  const Report full = run_experiment(spec);
  RunOptions shard0;
  shard0.shard_count = 2;
  shard0.shard_index = 0;
  RunOptions shard1;
  shard1.shard_count = 2;
  shard1.shard_index = 1;
  const Report a = run_experiment(spec, shard0);
  const Report b = run_experiment(spec, shard1);
  ASSERT_EQ(a.cells.size() + b.cells.size(), full.cells.size());
  // Shard rows are the exact rows of the full run (same seeds, same
  // samples) — sharding changes where cells run, never what they measure.
  const auto row_json = [](const Report& report, std::size_t i) {
    Report one;
    one.name = report.name;
    one.seed = report.seed;
    one.loads_per_cell = report.loads_per_cell;
    one.total_cells = report.total_cells;
    one.cells = {report.cells[i]};
    return one.to_json();
  };
  EXPECT_EQ(row_json(a, 0), row_json(full, 0));
  EXPECT_EQ(row_json(b, 0), row_json(full, 1));
}

TEST(ExperimentRunner, LoadsOverrideCapsWork) {
  RunOptions options;
  options.loads_override = 1;
  options.transport_probes = false;
  const Report report = run_experiment(small_spec(), options);
  for (const CellResult& cell : report.cells) {
    EXPECT_EQ(cell.plt_ms.size(), 1u);
    EXPECT_FALSE(cell.probe_ran);
  }
}

TEST(ExperimentRunner, MixedFleetCellReportsFairness) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"mixed", {"bbr", "cubic", "cubic"}}};
  const Report report = run_experiment(spec);
  ASSERT_EQ(report.cells.size(), 1u);
  const CellResult& cell = report.cells[0];
  // Page loads run with the heterogeneous fleet plumbed through browser
  // and origin servers.
  EXPECT_EQ(cell.failed_loads, 0u);
  ASSERT_TRUE(cell.probe_ran);
  ASSERT_EQ(cell.flows.size(), 3u);
  EXPECT_EQ(cell.flows[0].controller, "bbr");
  EXPECT_EQ(cell.flows[1].controller, "cubic");
  double total_share = 0;
  for (const FlowResult& flow : cell.flows) {
    EXPECT_GT(flow.bytes_delivered, 0u) << flow.controller << " starved";
    total_share += flow.share;
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  EXPECT_GT(cell.jain_index, 0.0);
  EXPECT_LE(cell.jain_index, 1.0);
}

TEST(ExperimentRunner, FleetAxisDegradesPltUnderLoad) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"cubic", {"cubic"}}};
  spec.fleets = {FleetAxis{"solo", 1, 0}, FleetAxis{"crowd", 6, 10'000}};
  RunOptions options;
  options.transport_probes = false;
  const Report report = run_experiment(spec, options);
  ASSERT_EQ(report.cells.size(), 2u);
  const CellResult& solo = report.cells[0];
  const CellResult& crowd = report.cells[1];
  EXPECT_EQ(solo.fleet, "solo");
  EXPECT_EQ(solo.fleet_sessions, 1);
  EXPECT_EQ(crowd.fleet, "crowd");
  EXPECT_EQ(crowd.fleet_sessions, 6);
  // One sample per load for the solo cell; sessions x loads for the crowd.
  EXPECT_EQ(solo.plt_ms.size(), 2u);
  EXPECT_EQ(crowd.plt_ms.size(), 12u);
  EXPECT_EQ(solo.failed_loads + crowd.failed_loads, 0u);
  // Six users contending for the same 8 Mbit/s link and origin servers
  // cannot beat one user having it all to itself.
  EXPECT_GT(crowd.plt_ms.median(), solo.plt_ms.median());
}

TEST(ExperimentRunner, FleetCellsAreByteIdenticalAcrossThreadCounts) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"cubic", {"cubic"}}};
  spec.fleets = {FleetAxis{"crowd", 4, 10'000}};
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  RunOptions options_four = options_one;
  options_four.runner = &four;
  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_four);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(ExperimentRunner, RejectsBadShards) {
  RunOptions options;
  options.shard_index = 2;
  options.shard_count = 2;
  EXPECT_THROW(run_experiment(small_spec(), options), std::invalid_argument);
}

/// small_spec() narrowed to one cc, with a fault ladder attached.
ExperimentSpec faulted_spec() {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"reno", {"reno"}}};
  FaultAxis chaos;
  chaos.label = "chaos";
  chaos.fault = fault::parse_fault_spec(
      "crash:p=0.3 retry:deadline=2s,max=3,base=100ms,cap=1s");
  FaultAxis grim;
  grim.label = "grim";
  grim.fault = fault::parse_fault_spec("crash:p=0.6 noretry");
  spec.faults = {FaultAxis{}, chaos, grim};
  return spec;
}

TEST(ExperimentRunner, FaultNoneAxisChangesNoMeasurement) {
  // Adding an explicit `fault none` axis widens the report (the fault
  // column appears) but must not perturb a single sample: the healthy
  // control is the same simulation, coin-flip for coin-flip.
  ExperimentSpec bare = small_spec();
  bare.ccs = {CcAxis{"reno", {"reno"}}};
  ExperimentSpec with_axis = bare;
  with_axis.faults = {FaultAxis{}};

  const Report a = run_experiment(bare);
  const Report b = run_experiment(with_axis);
  EXPECT_FALSE(a.fault_axis);
  EXPECT_TRUE(b.fault_axis);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].plt_ms.values(), b.cells[i].plt_ms.values());
    EXPECT_EQ(a.cells[i].queue_delay_p95_ms, b.cells[i].queue_delay_p95_ms);
    EXPECT_EQ(b.cells[i].fault, "none");
  }
  // And the axis-free report serializes without the fault column at all —
  // the byte-compat contract for every pre-existing spec.
  EXPECT_EQ(a.to_json().find("\"fault\""), std::string::npos);
  EXPECT_EQ(a.to_csv().find("fault"), std::string::npos);
  EXPECT_NE(b.to_csv().find(",fault,"), std::string::npos);
}

TEST(ExperimentRunner, FaultedCellsAreByteIdenticalAcrossThreadCounts) {
  // The whole point of stateless fault decisions: a chaos ladder is as
  // reproducible as a healthy run, at any pool size.
  const ExperimentSpec spec = faulted_spec();
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options_one;
  options_one.runner = &one;
  RunOptions options_four;
  options_four.runner = &four;
  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_four);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_bench_json(), b.to_bench_json());
  // Prove the ladder actually injected: the defended cell retried or
  // timed out, the undefended cell lost objects.
  ASSERT_EQ(a.cells.size(), 3u);
  const CellResult& chaos = a.cells[1];
  const CellResult& grim = a.cells[2];
  EXPECT_EQ(chaos.fault, "chaos");
  EXPECT_EQ(grim.fault, "grim");
  EXPECT_GT(chaos.retries + chaos.timeouts + chaos.objects_failed, 0u);
  EXPECT_GT(grim.objects_failed, 0u);
}

TEST(ExperimentRunner, FaultShardsMatchTheUnshardedRows) {
  // Sharding a faulted matrix must reproduce the full run's rows exactly
  // — fault plans key off the cell seed, not off which shard ran them.
  const ExperimentSpec spec = faulted_spec();
  const Report full = run_experiment(spec);
  std::vector<CellResult> stitched;
  for (int shard = 0; shard < 2; ++shard) {
    RunOptions options;
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
      if (candidate.index != row.index) {
        continue;
      }
      matched = candidate.plt_ms.values() == row.plt_ms.values() &&
                candidate.objects_failed == row.objects_failed &&
                candidate.retries == row.retries &&
                candidate.failed_loads == row.failed_loads;
    }
    EXPECT_TRUE(matched) << "cell " << row.index << " diverged under sharding";
  }
}

/// The session config run_experiment gives a single-user, single-flow cell
/// for load k — the reference a direct session load is compared against.
core::SessionConfig reference_config(const Cell& cell) {
  core::SessionConfig config;
  config.seed = cell.load_seed;
  config.shells = materialize_cell(cell).shells;
  config.controllers = cell.cc.fleet;
  return config;
}

ExperimentSpec corpus_spec() {
  return parse_spec(
      "name corpus\nseed 5\nloads 3\nsite alexa:10\n"
      "shell a delay=5ms\n"
      "shell b delay=5ms\n"
      "shell c delay=5ms link=12\n");
}

TEST(ExperimentRunner, CorpusCellsLoadSiteKWithTheSameSeed) {
  // Paired loads come from the input: every cell over one corpus loads
  // site k with a seed forked from (spec seed, corpus label, k), never
  // from the cell index.
  const ExperimentSpec spec = corpus_spec();
  const std::vector<Cell> cells = expand_matrix(spec);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].load_seed, cells[1].load_seed);
  EXPECT_EQ(cells[0].load_seed, cells[2].load_seed);
  EXPECT_NE(cells[0].load_seed, cells[0].cell_seed);
  RunOptions options;
  options.transport_probes = false;
  const Report report = run_experiment(spec, options);
  ASSERT_EQ(report.cells.size(), 3u);
  // Cells a and b differ only in their label: same site, same seed, same
  // samples, load for load.
  EXPECT_EQ(report.cells[0].plt_ms.values(), report.cells[1].plt_ms.values());
  EXPECT_NE(report.cells[0].plt_ms.values(), report.cells[2].plt_ms.values());
  // Load k replays site k: the samples are a CDF over distinct pages.
  EXPECT_NE(report.cells[0].plt_ms.values()[0],
            report.cells[0].plt_ms.values()[1]);
  // Named sites keep their per-cell seeds.
  for (const Cell& cell : expand_matrix(small_spec())) {
    EXPECT_EQ(cell.load_seed, cell.cell_seed);
  }
}

TEST(ExperimentRunner, CorpusLoadKEqualsADirectLoadOfSiteK) {
  const ExperimentSpec spec = corpus_spec();
  const Cell cell = expand_matrix(spec)[2];
  RunOptions options;
  options.transport_probes = false;
  const Report report = run_experiment(spec, options);
  const std::vector<double>& plts = report.cells[2].plt_ms.values();
  ASSERT_EQ(plts.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    const RecordedSite site = record_site(spec.seed, spec.sites[0], k);
    EXPECT_EQ(site.site.spec.name, "site" + std::to_string(k));
    const core::ReplaySession session{site.store, reference_config(cell)};
    const double direct =
        to_ms(session.load_once(site.site.primary_url(), k).page_load_time);
    EXPECT_EQ(direct, plts[static_cast<std::size_t>(k)]) << "load " << k;
  }
}

TEST(ExperimentRunner, CorpusLoadsBeyondTheCorpusAreRejected) {
  RunOptions options;
  options.loads_override = 11;
  EXPECT_THROW(run_experiment(corpus_spec(), options), std::invalid_argument);
}

TEST(ExperimentRunner, LiveDelayEqualsTheLiveLoadsPrimaryOneWayDelay) {
  ExperimentSpec spec;
  spec.name = "live";
  spec.seed = 31;
  spec.loads_per_cell = 3;
  spec.sites = {tiny_site()};
  ShellLayerSpec live_delay;
  live_delay.kind = ShellLayerSpec::Kind::kDelay;
  live_delay.live_delay = true;
  spec.shells = {ShellAxis{"web", {}, Origins::kLive},
                 ShellAxis{"fair", {live_delay}}};
  const std::vector<Cell> cells = expand_matrix(spec);
  ASSERT_EQ(cells.size(), 2u);
  const Cell& web = cells[0];
  const Cell& fair = cells[1];
  EXPECT_EQ(web.load_seed, fair.live_seed);
  RunOptions options;
  options.transport_probes = false;
  const Report report = run_experiment(spec, options);
  const RecordedSite site = record_site(spec.seed, spec.sites[0]);
  core::SessionConfig live_config = reference_config(web);
  const core::LiveWebSession live{site.site, corpus::LiveWebConfig{},
                                  live_config};
  for (int k = 0; k < 3; ++k) {
    const auto index = static_cast<std::size_t>(k);
    const core::LiveWebSession::LoadOutcome outcome = live.load_outcome(k);
    EXPECT_EQ(to_ms(outcome.result.page_load_time),
              report.cells[0].plt_ms.values()[index]);
    EXPECT_EQ(outcome.primary_rtt / 2, live_one_way_delay(fair, k));
    // The replay cell ran under DelayShell at exactly that delay.
    core::SessionConfig config = reference_config(fair);
    config.shells = {core::DelayShellSpec{outcome.primary_rtt / 2}};
    const core::ReplaySession session{site.store, config};
    EXPECT_EQ(
        to_ms(session.load_once(site.site.primary_url(), k).page_load_time),
        report.cells[1].plt_ms.values()[index])
        << "load " << k;
  }
}

TEST(ExperimentRunner, ClaimFreeReportsCarryNoClaimsKey) {
  ExperimentSpec spec = small_spec();
  RunOptions options;
  options.transport_probes = false;
  const Report plain = run_experiment(spec, options);
  EXPECT_EQ(plain.to_json().find("\"claims\""), std::string::npos);
  Claim claim;
  claim.name = "cubic-vs-reno";
  claim.cell = "cubic";
  claim.vs = "reno";
  spec.claims = {claim};
  const Report claimed = run_experiment(spec, options);
  // Claims ride after the cells; everything before them is untouched.
  const std::string plain_json = plain.to_json();
  const std::string claimed_json = claimed.to_json();
  const std::string body = plain_json.substr(0, plain_json.size() - 3);
  EXPECT_EQ(claimed_json.substr(0, body.size()), body);
  EXPECT_NE(claimed_json.find("\"claims\": [\n    {\"name\": "
                              "\"cubic-vs-reno\", \"claim\": \"median cubic "
                              "vs reno\", \"value\": "),
            std::string::npos)
      << claimed_json;
  EXPECT_EQ(claimed.to_csv(), plain.to_csv());
  EXPECT_EQ(claimed.to_bench_json(), plain.to_bench_json());
  ASSERT_EQ(claimed.claims.size(), 1u);
  EXPECT_EQ(claimed.claims[0].status, ClaimResult::Status::kUnbounded);
}

TEST(ExperimentRunner, ClaimsOutsideTheShardAreSkipped) {
  ExperimentSpec spec = small_spec();
  Claim claim;
  claim.name = "across-shards";
  claim.cell = "cubic";
  claim.vs = "reno";
  claim.bound = Claim::Bound::kWithin;
  claim.limit = 1000;
  spec.claims = {claim};
  RunOptions options;
  options.transport_probes = false;
  options.shard_count = 2;
  const Report shard = run_experiment(spec, options);
  ASSERT_EQ(shard.claims.size(), 1u);
  EXPECT_EQ(shard.claims[0].status, ClaimResult::Status::kSkipped);
  EXPECT_EQ(shard.to_json().find("\"value\""), std::string::npos);
  options.shard_count = 1;
  EXPECT_EQ(run_experiment(spec, options).claims[0].status,
            ClaimResult::Status::kPass);
}

TEST(ExperimentRunner, FailedLoadsLandAsReportRowsNotCrashes) {
  // An undefended cell under heavy crash faults: loads fail, the
  // experiment completes, and the failures are data — counted per cell,
  // with the healthy cells untouched.
  const ExperimentSpec spec = faulted_spec();
  const Report report = run_experiment(spec);
  ASSERT_EQ(report.cells.size(), 3u);
  const CellResult& none = report.cells[0];
  const CellResult& grim = report.cells[2];
  EXPECT_EQ(none.failed_loads, 0u);
  EXPECT_EQ(none.objects_failed, 0u);
  EXPECT_GT(grim.failed_loads, 0u);
  // Every load produced a row-worth of samples — failed ones included.
  EXPECT_EQ(grim.plt_ms.size() + /* torn tasks */ grim.load_errors.size(),
            static_cast<std::size_t>(report.loads_per_cell));
  // Degraded PLT never exceeds full PLT, sample for sample.
  ASSERT_EQ(grim.degraded_plt_ms.size(), grim.plt_ms.size());
  for (std::size_t i = 0; i < grim.plt_ms.size(); ++i) {
    EXPECT_LE(grim.degraded_plt_ms.values()[i], grim.plt_ms.values()[i]);
  }
  // The serialized report carries the fault axis and the failure counts.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"fault\": \"grim\""), std::string::npos);
  EXPECT_NE(json.find("\"objects_failed\""), std::string::npos);
}

TEST(ExperimentRunner, DegradedPltIsBoundedByPltAndEqualOnCleanLoads) {
  // Graceful degradation, load by load, in every cell of a faulted
  // matrix: degraded PLT never exceeds PLT, and a load that lost no
  // object is not degraded at all. The report keeps per-load PLTs but
  // only per-cell failure counts, so each load is replayed directly with
  // the cell's config — and must reproduce the engine's samples exactly.
  ExperimentSpec spec = faulted_spec();
  spec.loads_per_cell = 4;
  RunOptions options;
  options.transport_probes = false;
  const Report report = run_experiment(spec, options);
  const std::vector<Cell> cells = expand_matrix(spec);
  const RecordedSite site = record_site(spec.seed, spec.sites[0]);
  ASSERT_EQ(report.cells.size(), cells.size());
  std::size_t clean_loads = 0;
  std::size_t faulted_loads = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellResult& row = report.cells[c];
    ASSERT_EQ(row.plt_ms.size(), 4u) << row.fault;
    ASSERT_EQ(row.degraded_plt_ms.size(), 4u) << row.fault;
    core::SessionConfig config = reference_config(cells[c]);
    config.fault = cells[c].fault.fault;
    const core::ReplaySession session{site.store, config};
    std::uint64_t objects_failed = 0;
    for (int k = 0; k < 4; ++k) {
      const std::size_t i = static_cast<std::size_t>(k);
      const double plt = row.plt_ms.values()[i];
      const double degraded = row.degraded_plt_ms.values()[i];
      EXPECT_LE(degraded, plt) << row.fault << " load " << k;
      const web::PageLoadResult direct =
          session.load_once(site.site.primary_url(), k);
      EXPECT_EQ(to_ms(direct.page_load_time), plt) << row.fault << " " << k;
      EXPECT_EQ(to_ms(direct.degraded_page_load_time), degraded)
          << row.fault << " load " << k;
      objects_failed += direct.objects_failed;
      if (direct.objects_failed == 0) {
        EXPECT_EQ(degraded, plt) << row.fault << " load " << k;
        ++clean_loads;
      } else {
        ++faulted_loads;
      }
    }
    EXPECT_EQ(objects_failed, row.objects_failed) << row.fault;
  }
  // Both branches of the invariant were exercised.
  EXPECT_GT(clean_loads, 0u);
  EXPECT_GT(faulted_loads, 0u);
}

}  // namespace
}  // namespace mahimahi::experiment
