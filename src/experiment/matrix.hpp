#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/shells.hpp"
#include "experiment/spec.hpp"
#include "trace/trace.hpp"

namespace mahimahi::experiment {

/// One fully-resolved point of the scenario matrix. Cells carry copies of
/// their axis entries (not pointers into the spec), so a cell outlives
/// the spec it was expanded from.
struct Cell {
  /// Position in the full (unsharded) matrix — the determinism anchor:
  /// every per-cell random stream derives from (spec.seed, index).
  int index{0};
  SiteAxis site;
  web::AppProtocol protocol{web::AppProtocol::kHttp11};
  ShellAxis shell;
  QueueAxis queue;
  CcAxis cc;
  FleetAxis fleet;
  FaultAxis fault;
  std::uint64_t cell_seed{0};
  /// SessionConfig seed of every load (load k forks (load_seed, k) in the
  /// session layer). A named site's replay loads use cell_seed. A corpus
  /// cell forks it from (experiment seed, corpus label) instead, so every
  /// cell over one corpus loads site k with the same seed — paired loads
  /// across shells. A live-web cell uses live_seed.
  std::uint64_t load_seed{0};
  /// Seed of the live web behind this cell's site, forked from
  /// (experiment seed, site label): a live cell's load k and a
  /// `delay=live` cell's load k draw the same weather.
  std::uint64_t live_seed{0};

  /// "site/protocol/shell/queue/cc/fleet" — the stable row name in
  /// reports. A non-"none" fault axis appends "/<fault-label>"; the
  /// healthy control keeps the six-segment form, byte-identical to a spec
  /// with no fault axis at all.
  [[nodiscard]] std::string label() const;
};

/// Deterministic seed for cell `cell_index` of an experiment: forked from
/// the experiment seed by index, never by thread or execution order.
/// Per-load randomness then derives from (cell_seed, load_index) inside
/// the session layer — the (seed, cell, load) contract.
std::uint64_t derive_cell_seed(std::uint64_t experiment_seed, int cell_index);

/// Expand the cartesian product in canonical nesting order — site
/// (outermost), protocol, shell, queue, cc, fleet, fault (innermost) —
/// assigning cell indices 0..n-1. Empty axes are filled with their single
/// default entry first (see ExperimentSpec; the default fleet is "solo",
/// one session; the default fault is "none"). Validates the spec.
std::vector<Cell> expand_matrix(const ExperimentSpec& spec);

/// The cell whose axis labels include every '/'-separated label of
/// `selector` (e.g. "cnbc/m1"). Throws std::invalid_argument unless
/// exactly one cell matches.
const Cell& select_cell(const std::vector<Cell>& cells,
                        std::string_view selector);

/// Resolve a claim's cells against the expanded matrix; throws
/// std::invalid_argument when a selector matches zero or several cells or
/// a paired statistic compares cells on different sites.
void check_claim(const Claim& claim, const std::vector<Cell>& cells);

/// One-way delay of a `delay=live` layer on load `load_index`: the
/// primary-origin one-way delay the live web behind the cell's site shows
/// on that load (a live cell's primary_rtt / 2).
Microseconds live_one_way_delay(const Cell& cell, int load_index);

/// Everything the runner needs to instantiate a cell's network: the shell
/// stack with the cell's queue discipline installed on its link layer,
/// plus the probe-facing view of the bottleneck.
struct MaterializedCell {
  std::vector<core::ShellSpec> shells;
  /// The link layer's traces (shared with `shells`); null when the stack
  /// has no link layer — the probe then uses an effectively-unshaped
  /// 1000 Mbit/s bottleneck and the queue axis is inert.
  std::shared_ptr<const trace::PacketTrace> uplink;
  std::shared_ptr<const trace::PacketTrace> downlink;
  Microseconds total_one_way_delay{0};
  double loss{0};  // the loss layer's downlink rate (the probed direction)
  /// Position in `shells` of a `delay=live` DelayShell, or -1. The
  /// materialized value (and the probe's delay) is load 0's; the runner
  /// swaps in load k's delay per load.
  int live_delay_shell{-1};
};

/// Materialize a cell's shells and probe parameters. Pure function of the
/// cell: two calls produce identical traces (built-in traces are
/// synthesized from fixed seeds), which is what makes re-expansion at a
/// different thread count byte-identical.
MaterializedCell materialize_cell(const Cell& cell);

}  // namespace mahimahi::experiment
