#include "net/bulk_probe.hpp"

#include <gtest/gtest.h>

#include "trace/synthesis.hpp"
#include "util/random.hpp"
#include "util/statistics.hpp"

namespace mahimahi::net {
namespace {

TEST(JainFairnessIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(util::jain_fairness_index({}), 0.0);
  EXPECT_DOUBLE_EQ(util::jain_fairness_index({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(util::jain_fairness_index({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(util::jain_fairness_index({3.0, 3.0, 3.0}), 1.0);
  // One flow has everything: index = 1/n.
  EXPECT_DOUBLE_EQ(util::jain_fairness_index({1.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(MultiBulkFlow, TwoIdenticalFlowsShareEvenly) {
  MultiBulkFlowSpec spec;
  spec.controllers = {"reno", "reno"};
  spec.duration = 10'000'000;  // 10 s
  spec.link_mbps = 8.0;
  const MultiBulkFlowReport report = run_multi_bulk_flow(spec);

  ASSERT_EQ(report.flows.size(), 2u);
  double total_share = 0.0;
  for (const auto& flow : report.flows) {
    EXPECT_EQ(flow.controller, "reno");
    EXPECT_GT(flow.bytes_delivered, 0u);
    total_share += flow.share;
  }
  EXPECT_NEAR(total_share, 1.0, 1e-12);
  // Two identical loss-synchronized flows: close to even split.
  EXPECT_GT(report.jain_index, 0.9);
  EXPECT_LE(report.jain_index, 1.0);
  // Together they should saturate most of the 8 Mbit/s bottleneck.
  const double total_bps =
      report.flows[0].throughput_bps + report.flows[1].throughput_bps;
  EXPECT_GT(total_bps, 5.5e6);
  EXPECT_LT(total_bps, 8.5e6);
}

TEST(MultiBulkFlow, MixedFleetReportsEveryFlowAndValidIndex) {
  MultiBulkFlowSpec spec;
  spec.controllers = {"bbr", "cubic", "cubic"};
  spec.duration = 8'000'000;
  spec.link_mbps = 12.0;
  const MultiBulkFlowReport report = run_multi_bulk_flow(spec);

  ASSERT_EQ(report.flows.size(), 3u);
  EXPECT_EQ(report.flows[0].controller, "bbr");
  EXPECT_EQ(report.flows[1].controller, "cubic");
  EXPECT_EQ(report.flows[2].controller, "cubic");
  for (const auto& flow : report.flows) {
    EXPECT_GT(flow.bytes_delivered, 0u) << flow.controller << " starved";
  }
  EXPECT_GT(report.jain_index, 0.0);
  EXPECT_LE(report.jain_index, 1.0);
  EXPECT_GT(report.bottleneck.departures, 0u);
}

TEST(MultiBulkFlow, QueueDisciplineShapesTheBottleneck) {
  // Same fleet over droptail vs codel: the AQM must hold a visibly
  // shorter queue (that is its entire purpose).
  MultiBulkFlowSpec spec;
  spec.controllers = {"reno", "reno"};
  spec.duration = 8'000'000;
  spec.link_mbps = 6.0;

  spec.queue = QueueSpec{};  // infinite FIFO: bufferbloat
  const double fifo_p95 = run_multi_bulk_flow(spec).bottleneck.delay_p95_ms;
  spec.queue.discipline = "codel";
  const double codel_p95 = run_multi_bulk_flow(spec).bottleneck.delay_p95_ms;

  EXPECT_GT(fifo_p95, 0.0);
  EXPECT_LT(codel_p95, fifo_p95);
}

TEST(MultiBulkFlow, DeterministicAcrossRuns) {
  MultiBulkFlowSpec spec;
  spec.controllers = {"bbr", "cubic"};
  spec.duration = 5'000'000;
  spec.link_mbps = 10.0;
  spec.loss = 0.001;

  const MultiBulkFlowReport a = run_multi_bulk_flow(spec);
  const MultiBulkFlowReport b = run_multi_bulk_flow(spec);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].bytes_delivered, b.flows[i].bytes_delivered);
    EXPECT_EQ(a.flows[i].retransmissions, b.flows[i].retransmissions);
  }
  EXPECT_DOUBLE_EQ(a.jain_index, b.jain_index);
}

TEST(MultiBulkFlow, PinnedLteReport) {
  // The benchmark's six-controller fleet over the built-in "lte" trace
  // pair behind PIE, 5 s: per-flow results and every bottleneck field,
  // bit for bit.
  using namespace mahimahi::literals;
  MultiBulkFlowSpec spec;
  spec.controllers = {"reno", "cubic", "bbr", "vegas", "cubic", "reno"};
  spec.duration = 5'000'000;
  util::Rng rng{77};
  spec.uplink_trace = std::make_shared<const trace::PacketTrace>(
      trace::constant_rate(6e6, 2_s));
  spec.downlink_trace = std::make_shared<const trace::PacketTrace>(
      trace::cellular_like(rng, 20_s, 2e6, 24e6));
  spec.queue.discipline = "pie";
  spec.loss = 0.0005;
  const MultiBulkFlowReport report = run_multi_bulk_flow(spec);

  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want_flows = {
      {1223560, 5}, {172312, 9},   {1161296, 8},
      {483632, 4},  {1249624, 18}, {1252520, 6}};
  ASSERT_EQ(report.flows.size(), want_flows.size());
  for (std::size_t i = 0; i < want_flows.size(); ++i) {
    EXPECT_EQ(report.flows[i].controller, spec.controllers[i]);
    EXPECT_EQ(report.flows[i].bytes_delivered, want_flows[i].first) << i;
    EXPECT_EQ(report.flows[i].retransmissions, want_flows[i].second) << i;
  }
  EXPECT_EQ(report.jain_index, 0.82066977156797516);

  const LinkLogSummary& b = report.bottleneck;
  EXPECT_EQ(b.arrivals, 3989u);
  EXPECT_EQ(b.departures, 3943u);
  EXPECT_EQ(b.drops, 46u);
  EXPECT_EQ(b.drops_overflow, 0u);
  EXPECT_EQ(b.drops_aqm, 46u);
  EXPECT_EQ(b.drops_unknown, 0u);
  EXPECT_EQ(b.queue_high_water_packets, 84u);
  EXPECT_EQ(b.queue_high_water_bytes, 126000u);
  EXPECT_EQ(b.bytes_delivered, 5879748u);
  EXPECT_EQ(b.average_throughput_bps, 9193678.2934675962);
  EXPECT_EQ(b.delay_p50_ms, 2.04);
  EXPECT_EQ(b.delay_p95_ms, 88.015699999999995);
  EXPECT_EQ(b.delay_max_ms, 168.286);
  EXPECT_EQ(b.throughput_bins_bps,
            (std::vector<double>{8500992, 5040000, 5808000, 9312000, 9456000,
                                 11232000, 11952000, 12504000, 10848000,
                                 8280000, 1142976}));
  EXPECT_EQ(b.bin_width, 500000);
}

}  // namespace
}  // namespace mahimahi::net
