#pragma once

#include <string>
#include <vector>

#include "core/parallel_runner.hpp"
#include "core/shells.hpp"
#include "corpus/site_generator.hpp"
#include "experiment/matrix.hpp"
#include "harness.hpp"
#include "util/random.hpp"

namespace mmbench {

/// The four workloads. Each derives its inputs from `options.seed`, runs
/// a closed loop for `options.seconds`, checks that every simulated result
/// is correct and deterministic, and fills `Outcome` with the end-to-end
/// metrics (untraced) or the per-layer metrics (options.traced).
Outcome run_replay_alexa500(const Options& options,
                            mahimahi::core::ParallelRunner& runner);
Outcome run_bulk_transport(const Options& options,
                           mahimahi::core::ParallelRunner& runner);
Outcome run_crowd_shared(const Options& options,
                         mahimahi::core::ParallelRunner& runner);
Outcome run_observed_matrix(const Options& options,
                            mahimahi::core::ParallelRunner& runner);

/// Warm-up tasks use indices from here on, clear of every timed task.
inline constexpr int kWarmupBase = 1'000'000;

// --- shell stacks, materialized by the experiment engine so the built-in
// "lte" trace is exactly the one every spec uses -------------------------

[[nodiscard]] inline mahimahi::experiment::ShellLayerSpec delay_layer(
    mahimahi::Microseconds one_way) {
  mahimahi::experiment::ShellLayerSpec layer;
  layer.kind = mahimahi::experiment::ShellLayerSpec::Kind::kDelay;
  layer.delay_one_way = one_way;
  return layer;
}

[[nodiscard]] inline mahimahi::experiment::ShellLayerSpec link_layer(
    double up_mbps, double down_mbps) {
  mahimahi::experiment::ShellLayerSpec layer;
  layer.kind = mahimahi::experiment::ShellLayerSpec::Kind::kLink;
  layer.up_mbps = up_mbps;
  layer.down_mbps = down_mbps;
  return layer;
}

/// 6 Mbit/s up, cellular-like 2-24 Mbit/s down.
[[nodiscard]] inline mahimahi::experiment::ShellLayerSpec lte_link_layer() {
  mahimahi::experiment::ShellLayerSpec layer;
  layer.kind = mahimahi::experiment::ShellLayerSpec::Kind::kLink;
  layer.trace_name = "lte";
  return layer;
}

/// Materialize one shell stack the way the experiment engine does.
[[nodiscard]] mahimahi::experiment::MaterializedCell materialize_shell(
    const std::string& label,
    std::vector<mahimahi::experiment::ShellLayerSpec> layers);

/// `count` Alexa-calibrated site specs (alexa_server_counts +
/// alexa_site_spec) drawn from `rng`, sorted by page weight (object count
/// times size scale). Workloads pick sites by weight rank, so corpora of
/// different seeds follow the same weight quantiles and carry comparable
/// work while every site still differs.
[[nodiscard]] std::vector<mahimahi::corpus::SiteSpec> alexa_specs_by_weight(
    mahimahi::util::Rng rng, int count);

}  // namespace mmbench
