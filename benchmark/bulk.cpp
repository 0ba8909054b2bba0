// bulk-transport: sweeps of six-flow mixed-CC fairness probes over an LTE
// trace and a 48 Mbit/s link, each behind droptail and PIE queues.

#include <array>
#include <stdexcept>

#include "net/bulk_probe.hpp"
#include "workloads.hpp"

namespace mmbench {
namespace mm = mahimahi;
namespace {

constexpr int kCases = 4;
constexpr int kPrefix = 8;
constexpr int kRecheckEvery = 32;
constexpr mm::Microseconds kProbeDuration = 30'000'000;

struct Inputs {
  std::array<mm::net::MultiBulkFlowSpec, kCases> cases;
  std::uint64_t seed{0};
};

mm::net::QueueSpec droptail_queue() {
  mm::net::QueueSpec queue;
  queue.discipline = "droptail";
  queue.max_packets = 256;
  return queue;
}

mm::net::QueueSpec pie_queue() {
  mm::net::QueueSpec queue;
  queue.discipline = "pie";
  return queue;
}

/// Case c of sweep i, with its loss and PIE coins forked per repetition.
mm::net::MultiBulkFlowSpec probe_spec(const Inputs& inputs, int sweep, int c) {
  mm::net::MultiBulkFlowSpec spec = inputs.cases[static_cast<std::size_t>(c)];
  const mm::util::Rng root{inputs.seed};
  const std::string label = std::to_string(sweep) + "/" + std::to_string(c);
  spec.loss_seed = root.fork("bulk/loss/" + label).next();
  spec.queue.pie_seed = root.fork("bulk/pie/" + label).next();
  return spec;
}

struct ProbeRecord {
  std::vector<std::uint64_t> flow_bytes;
  double jain{0};
  std::uint64_t arrivals{0};
  std::uint64_t drops{0};
  std::uint64_t queue_hw{0};
  std::uint64_t retransmits{0};
  std::size_t flows{0};
  double ms{0};
  std::string error;

  [[nodiscard]] bool same_result(const ProbeRecord& other) const {
    return flow_bytes == other.flow_bytes && jain == other.jain &&
           error == other.error;
  }
  [[nodiscard]] bool failed() const {
    if (!error.empty() || flow_bytes.empty()) {
      return true;
    }
    for (const std::uint64_t bytes : flow_bytes) {
      if (bytes == 0) {
        return true;
      }
    }
    return false;
  }
};

using Sweep = std::array<ProbeRecord, kCases>;

Sweep sweep(const Inputs& inputs, int index) {
  Sweep records;
  for (int c = 0; c < kCases; ++c) {
    ProbeRecord& r = records[static_cast<std::size_t>(c)];
    const auto start = Clock::now();
    try {
      const mm::net::MultiBulkFlowReport report =
          mm::net::run_multi_bulk_flow(probe_spec(inputs, index, c));
      for (const auto& flow : report.flows) {
        r.flow_bytes.push_back(flow.bytes_delivered);
        r.retransmits += flow.retransmissions;
      }
      r.flows = report.flows.size();
      r.jain = report.jain_index;
      r.arrivals = report.bottleneck.arrivals;
      r.drops = report.bottleneck.drops;
      r.queue_hw = report.bottleneck.queue_high_water_packets;
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    r.ms = ms_since(start);
  }
  return records;
}

Inputs build_inputs(const Options& options, mm::core::ParallelRunner& runner) {
  Inputs inputs;
  inputs.seed = options.seed;
  const mm::experiment::MaterializedCell lte =
      materialize_shell("lte", {lte_link_layer()});
  for (int c = 0; c < kCases; ++c) {
    mm::net::MultiBulkFlowSpec& spec =
        inputs.cases[static_cast<std::size_t>(c)];
    spec.controllers = {"reno", "cubic", "bbr", "vegas", "cubic", "reno"};
    spec.duration = kProbeDuration;
    spec.loss = 0.0005;
    spec.queue = c % 2 == 0 ? droptail_queue() : pie_queue();
    if (c < 2) {
      spec.uplink_trace = lte.uplink;
      spec.downlink_trace = lte.downlink;
    } else {
      spec.link_mbps = 48;
    }
  }
  runner.map(options.threads, [&](int worker) {
    return sweep(inputs, kWarmupBase + worker)[0].flows > 0 ? 1 : 0;
  });
  return inputs;
}

void digest_sweep(Digest& digest, int index, const Sweep& records) {
  digest.value(index);
  for (const ProbeRecord& r : records) {
    for (const std::uint64_t bytes : r.flow_bytes) {
      digest.value(bytes);
    }
    digest.value(r.jain);
  }
}

void account(const Done<Sweep>& task, Outcome& outcome) {
  for (const ProbeRecord& r : task.result) {
    ++outcome.attempted;
    if (r.failed()) {
      ++outcome.failed;
      outcome.check(false, "sweep " + std::to_string(task.index) +
                               ": a probe failed or starved a flow " + r.error);
    }
  }
}

void run_untraced(const Options& options, mm::core::ParallelRunner& runner,
                  const Inputs& inputs, Outcome& outcome) {
  double wall_s = 0;
  const auto done = closed_loop<Sweep>(
      runner, options.threads, options.seconds, kPrefix,
      [&](int index) { return sweep(inputs, index); }, wall_s);
  double packets = 0;
  Digest digest;
  std::vector<const Done<Sweep>*> rechecks;
  for (const auto& task : done) {
    account(task, outcome);
    for (const ProbeRecord& r : task.result) {
      packets += static_cast<double>(r.arrivals);
    }
    if (task.index < kPrefix) {
      digest_sweep(digest, task.index, task.result);
    }
    if (task.index % kRecheckEvery == 0) {
      rechecks.push_back(&task);
    }
  }
  report_loop(task_times(done), packets, wall_s, outcome);
  outcome.sim_digest = digest.state;
  const auto again =
      runner.map(static_cast<int>(rechecks.size()), [&](int k) {
        return sweep(inputs, rechecks[static_cast<std::size_t>(k)]->index);
      });
  for (std::size_t k = 0; k < rechecks.size(); ++k) {
    for (int c = 0; c < kCases; ++c) {
      const auto i = static_cast<std::size_t>(c);
      outcome.check(again[k][i].same_result(rechecks[k]->result[i]),
                    "sweep " + std::to_string(rechecks[k]->index) + " case " +
                        std::to_string(c) + " does not recompute exactly");
    }
  }
}

void run_traced(const Options& options, mm::core::ParallelRunner& runner,
                const Inputs& inputs, Outcome& outcome) {
  double wall_s = 0;
  const auto done = closed_loop<Sweep>(
      runner, options.threads, options.seconds, kPrefix,
      [&](int index) { return sweep(inputs, index); }, wall_s);
  double probe_ms = 0, task_ms = 0, packets = 0;
  double prefix_pkts = 0, drops = 0, retransmits = 0, flows = 0, jain = 0;
  std::uint64_t queue_hw = 0;
  Digest digest;
  for (const auto& task : done) {
    account(task, outcome);
    task_ms += task.ms;
    for (const ProbeRecord& r : task.result) {
      probe_ms += r.ms;
      packets += static_cast<double>(r.arrivals);
      if (task.index < kPrefix) {
        prefix_pkts += static_cast<double>(r.arrivals);
        drops += static_cast<double>(r.drops);
        retransmits += static_cast<double>(r.retransmits);
        flows += static_cast<double>(r.flows);
        jain += r.jain;
        queue_hw = std::max(queue_hw, r.queue_hw);
      }
    }
    if (task.index < kPrefix) {
      digest_sweep(digest, task.index, task.result);
    }
  }
  outcome.sim_digest = digest.state;
  auto& m = outcome.metrics;
  m["net.ns_per_pkt"] = probe_ms * 1e6 / packets;
  m["net.run_frac"] = probe_ms / task_ms;
  m["obs.traced_task_ms_p50"] = percentile(task_times(done), 50);
  const double n = kPrefix;
  m["link.pkts_per_task"] = prefix_pkts / n;
  m["link.drops_per_task"] = drops / n;
  m["link.queue_hw_pkts"] = static_cast<double>(queue_hw);
  m["tcp.conns_per_task"] = flows / n;
  m["tcp.retransmits_per_task"] = retransmits / n;
  m["sim.jain_mean"] = jain / (n * kCases);
  m["net.queue_ns_per_pkt"] = queue_ns_per_pkt({droptail_queue(), pie_queue()});
}

}  // namespace

Outcome run_bulk_transport(const Options& options,
                           mm::core::ParallelRunner& runner) {
  Outcome outcome;
  const Inputs inputs =
      repeated_setup([&] { return build_inputs(options, runner); }, outcome);
  if (options.traced) {
    run_traced(options, runner, inputs, outcome);
  } else {
    run_untraced(options, runner, inputs, outcome);
  }
  return outcome;
}

}  // namespace mmbench
