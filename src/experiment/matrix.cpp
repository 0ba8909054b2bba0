#include "experiment/matrix.hpp"

#include <algorithm>
#include <stdexcept>

#include "cc/registry.hpp"
#include "core/sessions.hpp"
#include "trace/synthesis.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace mahimahi::experiment {

using namespace mahimahi::literals;

namespace {

/// The built-in "lte" trace pair: 6 Mbit/s uplink, a cellular-like
/// downlink walking between 2 and 24 Mbit/s. Synthesized from fixed
/// seeds so every expansion of every spec sees the identical trace.
std::pair<std::shared_ptr<const trace::PacketTrace>,
          std::shared_ptr<const trace::PacketTrace>>
lte_traces() {
  // Synthesized once per process (immutable, shared): every cell of every
  // expansion aliases the same trace instead of re-walking the 20 s
  // random walk per materialization.
  static const auto traces = [] {
    util::Rng rng{77};
    auto up = std::make_shared<const trace::PacketTrace>(
        trace::constant_rate(6e6, 2_s));
    auto down = std::make_shared<const trace::PacketTrace>(
        trace::cellular_like(rng, 20_s, 2e6, 24e6));
    return std::pair{std::move(up), std::move(down)};
  }();
  return traces;
}

ExperimentSpec with_defaults(ExperimentSpec spec) {
  if (spec.sites.empty()) {
    spec.sites.push_back(
        SiteAxis{"nytimes", site_spec_for_label("nytimes")});
  }
  if (spec.protocols.empty()) {
    spec.protocols.push_back(web::AppProtocol::kHttp11);
  }
  if (spec.shells.empty()) {
    spec.shells.push_back(ShellAxis{"bare", {}});
  }
  if (spec.queues.empty()) {
    spec.queues.push_back(QueueAxis{"fifo", net::QueueSpec{}});
  }
  if (spec.ccs.empty()) {
    spec.ccs.push_back(
        CcAxis{cc::kDefaultController, {cc::kDefaultController}});
  }
  if (spec.fleets.empty()) {
    spec.fleets.push_back(FleetAxis{"solo", 1});
  }
  if (spec.faults.empty()) {
    spec.faults.push_back(FaultAxis{});  // "none": the healthy control
  }
  return spec;
}

}  // namespace

std::string Cell::label() const {
  const char* protocol_name =
      protocol == web::AppProtocol::kMultiplexed ? "mux" : "http11";
  std::string label = site.label + "/" + protocol_name + "/" + shell.label +
                      "/" + queue.label + "/" + cc.label + "/" + fleet.label;
  if (fault.label != "none") {
    label += "/" + fault.label;
  }
  return label;
}

std::uint64_t derive_cell_seed(std::uint64_t experiment_seed, int cell_index) {
  util::Rng root{experiment_seed};
  return root.fork("cell-" + std::to_string(cell_index)).next();
}

std::vector<Cell> expand_matrix(const ExperimentSpec& raw) {
  validate_spec(raw);
  const ExperimentSpec spec = with_defaults(raw);
  const util::Rng root{spec.seed};
  std::vector<Cell> cells;
  cells.reserve(spec.sites.size() * spec.protocols.size() *
                spec.shells.size() * spec.queues.size() * spec.ccs.size() *
                spec.fleets.size() * spec.faults.size());
  int index = 0;
  for (const auto& site : spec.sites) {
    for (const auto protocol : spec.protocols) {
      for (const auto& shell : spec.shells) {
        for (const auto& queue : spec.queues) {
          for (const auto& cc : spec.ccs) {
            for (const auto& fleet : spec.fleets) {
              for (const auto& fault : spec.faults) {
                Cell cell;
                cell.index = index;
                cell.site = site;
                cell.protocol = protocol;
                cell.shell = shell;
                cell.queue = queue;
                cell.cc = cc;
                cell.fleet = fleet;
                cell.fault = fault;
                cell.cell_seed = derive_cell_seed(spec.seed, index);
                cell.live_seed = root.fork("live-" + site.label).next();
                if (shell.origins == Origins::kLive) {
                  cell.load_seed = cell.live_seed;
                } else if (site.corpus_size > 0) {
                  cell.load_seed =
                      root.fork("corpus-loads-" + site.label).next();
                } else {
                  cell.load_seed = cell.cell_seed;
                }
                cells.push_back(std::move(cell));
                ++index;
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

const Cell& select_cell(const std::vector<Cell>& cells,
                        std::string_view selector) {
  const std::vector<std::string_view> wanted = util::split(selector, '/');
  const Cell* found = nullptr;
  for (const Cell& cell : cells) {
    const std::string_view labels[] = {
        cell.site.label,  cell.protocol == web::AppProtocol::kMultiplexed
                              ? "mux"
                              : "http11",
        cell.shell.label, cell.queue.label,
        cell.cc.label,    cell.fleet.label,
        cell.fault.label};
    const bool match = std::all_of(
        wanted.begin(), wanted.end(), [&](std::string_view label) {
          return std::find(std::begin(labels), std::end(labels), label) !=
                 std::end(labels);
        });
    if (!match) {
      continue;
    }
    if (found != nullptr) {
      throw std::invalid_argument{"cell selector '" + std::string{selector} +
                                  "' matches several cells (" +
                                  found->label() + ", " + cell.label() +
                                  ", ...); add axis labels"};
    }
    found = &cell;
  }
  if (found == nullptr) {
    throw std::invalid_argument{"cell selector '" + std::string{selector} +
                                "' matches no cell"};
  }
  return *found;
}

void check_claim(const Claim& claim, const std::vector<Cell>& cells) {
  const Cell& cell = select_cell(cells, claim.cell);
  if (claim.vs.empty()) {
    return;
  }
  const Cell& vs = select_cell(cells, claim.vs);
  if (claim.paired() && cell.site.label != vs.site.label) {
    throw std::invalid_argument{
        "claim '" + claim.name + "': paired statistics need aligned loads "
        "(both cells on one site or corpus), but '" + claim.cell +
        "' loads " + cell.site.label + " and '" + claim.vs + "' loads " +
        vs.site.label};
  }
}

Microseconds live_one_way_delay(const Cell& cell, int load_index) {
  core::SessionConfig config;
  config.seed = cell.live_seed;
  return core::live_primary_one_way(config, corpus::LiveWebConfig{},
                                    load_index);
}

MaterializedCell materialize_cell(const Cell& cell) {
  MaterializedCell materialized;
  for (const auto& layer : cell.shell.layers) {
    switch (layer.kind) {
      case ShellLayerSpec::Kind::kDelay: {
        Microseconds delay = layer.delay_one_way;
        if (layer.live_delay) {
          materialized.live_delay_shell =
              static_cast<int>(materialized.shells.size());
          delay = live_one_way_delay(cell, 0);
        }
        materialized.shells.push_back(core::DelayShellSpec{delay});
        materialized.total_one_way_delay += delay;
        break;
      }
      case ShellLayerSpec::Kind::kLink: {
        core::LinkShellSpec link;
        if (layer.trace_name == "lte") {
          auto [up, down] = lte_traces();
          link.uplink = std::move(up);
          link.downlink = std::move(down);
        } else {
          link.uplink = std::make_shared<const trace::PacketTrace>(
              trace::constant_rate(layer.up_mbps * 1e6, 2_s));
          link.downlink = std::make_shared<const trace::PacketTrace>(
              trace::constant_rate(layer.down_mbps * 1e6, 2_s));
        }
        link.uplink_queue = cell.queue.queue;
        link.downlink_queue = cell.queue.queue;
        // Decorrelate the AQM drop coins per cell and per direction
        // (deterministically: pure function of the cell seed).
        link.uplink_queue.pie_seed = cell.cell_seed ^ 0xA17;
        link.downlink_queue.pie_seed = cell.cell_seed ^ 0xB26;
        materialized.uplink = link.uplink;
        materialized.downlink = link.downlink;
        materialized.shells.push_back(std::move(link));
        break;
      }
      case ShellLayerSpec::Kind::kLoss: {
        materialized.shells.push_back(
            core::LossShellSpec{layer.uplink_loss, layer.downlink_loss});
        materialized.loss = layer.downlink_loss;
        break;
      }
    }
  }
  return materialized;
}

}  // namespace mahimahi::experiment
