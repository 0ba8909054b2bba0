#include "harness.hpp"

#include <sys/resource.h>

#include <filesystem>
#include <memory>

#include "corpus/alexa.hpp"
#include "experiment/checkpoint.hpp"
#include "journal/journal.hpp"
#include "net/event_loop.hpp"
#include "net/packet.hpp"
#include "obs/export.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace mmbench {

namespace mm = mahimahi;

namespace {

constexpr int kMicroRepetitions = 5;

/// Median over repetitions of `body()`, which returns ns per operation.
template <typename Body>
double median_of_repetitions(Body&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kMicroRepetitions; ++rep) {
    ns.push_back(body());
  }
  return median(ns);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void report_loop(const std::vector<double>& task_ms, double work_units,
                 double wall_s, Outcome& outcome) {
  outcome.metrics["throughput_per_s"] = work_units / wall_s;
  outcome.metrics["task_ms_p50"] = percentile(task_ms, 50);
  outcome.tasks = task_ms.size();
  outcome.task_ms_p90 = percentile(task_ms, 90);
}

void TraceCounts::add(const mm::obs::TraceBuffer& buffer) {
  using mm::obs::EventKind;
  using mm::obs::Layer;
  events += buffer.events.size();
  for (const mm::obs::TraceEvent& e : buffer.events) {
    if (e.layer == Layer::kLink && e.kind == EventKind::kEnqueue) {
      ++link_pkts;
      queue_hw = std::max(queue_hw, e.value);
    } else if (e.layer == Layer::kLink && e.kind == EventKind::kDrop) {
      ++link_drops;
    } else if (e.kind == EventKind::kTcpConnect) {
      ++tcp_connects;
    } else if (e.kind == EventKind::kTcpRetransmit) {
      ++retransmits;
    } else if (e.kind == EventKind::kTcpRto) {
      ++rtos;
    } else if (e.kind == EventKind::kDnsQuery) {
      ++dns_queries;
    } else if (e.kind == EventKind::kFaultInjected) {
      ++fault_injections;
    }
  }
}

void TraceCounts::merge(const TraceCounts& other) {
  events += other.events;
  link_pkts += other.link_pkts;
  link_drops += other.link_drops;
  queue_hw = std::max(queue_hw, other.queue_hw);
  tcp_connects += other.tcp_connects;
  retransmits += other.retransmits;
  rtos += other.rtos;
  dns_queries += other.dns_queries;
  fault_injections += other.fault_injections;
}

void TraceCounts::report(double tasks, Outcome& outcome) const {
  const auto per_task = [tasks](std::uint64_t count) {
    return static_cast<double>(count) / tasks;
  };
  auto& m = outcome.metrics;
  m["link.pkts_per_task"] = per_task(link_pkts);
  m["link.drops_per_task"] = per_task(link_drops);
  m["link.queue_hw_pkts"] = static_cast<double>(queue_hw);
  m["tcp.conns_per_task"] = per_task(tcp_connects) / 2;
  m["tcp.retransmits_per_task"] = per_task(retransmits);
  m["tcp.rtos_per_task"] = per_task(rtos);
  m["dns.queries_per_task"] = per_task(dns_queries);
  m["fault.injections_per_task"] = per_task(fault_injections);
  m["obs.events_per_task"] = per_task(events);
}

void SplitTotals::add(const Phases& phases, double traced_task_ms,
                      double matcher_task_ms) {
  untraced.build_ms += phases.build_ms;
  untraced.run_ms += phases.run_ms;
  untraced.teardown_ms += phases.teardown_ms;
  traced_ms += traced_task_ms;
  matcher_ms += matcher_task_ms;
  traced.push_back(traced_task_ms);
}

void SplitTotals::report(double prefix_tasks, Outcome& outcome) const {
  const double total = untraced.total();
  auto& m = outcome.metrics;
  m["core.build_frac"] = untraced.build_ms / total;
  m["core.teardown_frac"] = untraced.teardown_ms / total;
  m["net.run_frac"] = untraced.run_ms / total;
  m["replay.matcher_frac"] = matcher_ms / total;
  m["obs.traced_overhead_frac"] = traced_ms / total - 1;
  m["obs.traced_task_ms_p50"] = percentile(traced, 50);
  m["obs.artifact_kb_per_task"] = exported_bytes / 1e3 / prefix_tasks;
  prefix.report(prefix_tasks, outcome);
}

std::uint64_t artifact_bytes(const mm::obs::TraceBuffer& buffer) {
  const mm::obs::TraceMeta meta{"mmbench", "task", 0, 0};
  const std::vector<mm::obs::LoadTrace> loads{mm::obs::LoadTrace{0, buffer}};
  return mm::obs::to_chrome_trace(meta, loads).size() +
         mm::obs::to_har(meta, loads).size() +
         mm::obs::to_csv(meta, loads).size();
}

double loop_ns_per_event(std::uint64_t seed) {
  constexpr int kEvents = 200'000;
  mm::util::Rng rng = mm::util::Rng{seed}.fork("micro/loop");
  std::vector<mm::Microseconds> delays(kEvents);
  for (auto& delay : delays) {
    delay = rng.uniform_int(0, 1'000'000);
  }
  mm::net::EventLoop loop;
  std::uint64_t fired = 0;
  return median_of_repetitions([&] {
    const auto start = Clock::now();
    for (const mm::Microseconds delay : delays) {
      loop.schedule_in(delay, [&fired] { ++fired; });
    }
    loop.run();
    return seconds_between(start, Clock::now()) * 1e9 / kEvents;
  });
}

double queue_ns_per_pkt(const std::vector<mm::net::QueueSpec>& specs) {
  constexpr int kRounds = 2'000;
  constexpr int kBurst = 64;  // below every bound: no drops, fixed work
  mm::net::Packet packet;
  packet.protocol = mm::net::Protocol::kTcp;
  packet.tcp.payload = mm::net::Payload{std::string(mm::net::kMss, 'x')};
  return median_of_repetitions([&] {
    std::uint64_t packets = 0;
    const auto start = Clock::now();
    for (const mm::net::QueueSpec& spec : specs) {
      const auto queue = mm::net::make_queue(spec);
      mm::Microseconds now = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kBurst; ++k) {
          mm::net::Packet copy = packet;
          copy.id = ++packets;
          queue->enqueue(std::move(copy), now);
          now += 10;
        }
        while (queue->dequeue(now).has_value()) {
          now += 10;
        }
      }
    }
    return seconds_between(start, Clock::now()) * 1e9 /
           static_cast<double>(packets);
  });
}

double tracer_ns_per_event(std::uint64_t seed) {
  constexpr int kEvents = 200'000;
  const std::uint64_t salt = mm::util::Rng{seed}.fork("micro/tracer").next();
  return median_of_repetitions([&] {
    const auto start = Clock::now();
    mm::obs::Tracer tracer;
    for (int i = 0; i < kEvents; ++i) {
      const auto n = static_cast<std::uint64_t>(i) ^ (salt & 0xff);
      tracer.event(i, mm::obs::Layer::kLink, mm::obs::EventKind::kEnqueue, 0,
                   n % 64, n % 100, 1500.0 * static_cast<double>(n % 100),
                   "shell0/down");
    }
    const mm::obs::TraceBuffer buffer = tracer.take();
    return seconds_between(start, Clock::now()) * 1e9 /
           static_cast<double>(buffer.events.size());
  });
}

double journal_append_us_p50(const std::string& dir) {
  constexpr int kAppends = 32;
  std::filesystem::create_directories(dir);
  mm::journal::Writer writer{dir, 0};
  mm::experiment::TaskResult result;
  result.plts = {1234.5};
  result.oks = {1};
  result.degraded = {1234.5};
  result.failed_objects = {0};
  result.retries = {0};
  result.timeouts = {0};
  for (int i = 0; i < 200; ++i) {
    result.trace.events.push_back(mm::obs::TraceEvent{
        i * 100, mm::obs::Layer::kLink, mm::obs::EventKind::kEnqueue, 0, 1,
        static_cast<std::uint64_t>(i % 50), 1500.0, "shell0/down"});
  }
  std::vector<double> us;
  for (int i = 0; i < kAppends; ++i) {
    const auto start = Clock::now();
    const std::string record = mm::experiment::encode_task_record(
        mm::experiment::TaskKey{0, i, false}, result);
    writer.append(record);
    us.push_back(ms_since(start) * 1e3);
  }
  return median(us);
}

mm::experiment::MaterializedCell materialize_shell(
    const std::string& label,
    std::vector<mm::experiment::ShellLayerSpec> layers) {
  mm::experiment::ExperimentSpec spec;
  spec.shells.push_back(mm::experiment::ShellAxis{label, std::move(layers)});
  return mm::experiment::materialize_cell(
      mm::experiment::expand_matrix(spec).front());
}

std::vector<mm::corpus::SiteSpec> alexa_specs_by_weight(mm::util::Rng rng,
                                                        int count) {
  const std::vector<int> servers = mm::corpus::alexa_server_counts(rng, count);
  std::vector<mm::corpus::SiteSpec> specs;
  for (int i = 0; i < count; ++i) {
    specs.push_back(mm::corpus::alexa_site_spec(
        i, servers[static_cast<std::size_t>(i)], rng));
  }
  const auto weight = [](const mm::corpus::SiteSpec& spec) {
    return spec.object_count * spec.size_scale;
  };
  std::stable_sort(specs.begin(), specs.end(),
                   [&](const mm::corpus::SiteSpec& a,
                       const mm::corpus::SiteSpec& b) {
                     return weight(a) < weight(b);
                   });
  return specs;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace mmbench
