// replay-alexa500: cold ReplayShell loads over a 500-site Alexa-calibrated
// corpus, each site under cable, lte and bare shells.

#include <memory>
#include <optional>
#include <stdexcept>

#include "core/sessions.hpp"
#include "net/event_loop.hpp"
#include "replay/matcher.hpp"
#include "workloads.hpp"

namespace mmbench {
namespace mm = mahimahi;
namespace {

constexpr int kSites = 500;
// The corpus keeps the middle site of each weight stratum of kOversample
// draws: it follows the calibrated distribution's quantiles, so the
// corpora of different seeds carry nearly the same work.
constexpr int kOversample = 8;
constexpr int kPrefix = 60;  // tasks behind the exact counts and the digest
constexpr int kRecheckEvery = 50;
constexpr std::size_t kEventLimit = 200'000'000;

struct Site {
  std::string url;
  mm::record::RecordStore store;
};

struct Shell {
  std::string name;
  mm::core::SessionConfig config;
};

struct Inputs {
  std::vector<Site> sites;
  std::vector<int> order;  // seeded permutation: the task walk over sites
  std::vector<Shell> shells;
  double record_share{0};  // generate + record share of the set-up
};

struct Task {
  const Site& site;
  const Shell& shell;
  int load_index;
};

/// Task i: shell i % 3 on the next site of the seeded walk.
Task task_for(const Inputs& inputs, int index) {
  const auto shells = static_cast<int>(inputs.shells.size());
  const int site = inputs.order[static_cast<std::size_t>((index / shells) %
                                                         kSites)];
  return Task{inputs.sites[static_cast<std::size_t>(site)],
              inputs.shells[static_cast<std::size_t>(index % shells)], index};
}

/// The simulated result of one load — compared bit-exactly on recheck.
struct LoadRecord {
  mm::Microseconds plt{0};
  std::size_t objects{0};
  std::uint64_t bytes{0};
  bool ok{false};
  std::string error;

  bool operator==(const LoadRecord&) const = default;
};

LoadRecord record_of(const mm::web::PageLoadResult& result) {
  return LoadRecord{result.page_load_time, result.objects_loaded,
                    result.bytes_downloaded, result.success, {}};
}

LoadRecord failed_record(const std::exception& e) {
  LoadRecord failed;
  failed.error = e.what();
  return failed;
}

LoadRecord load(const Task& task) {
  try {
    const mm::core::ReplaySession session{task.site.store, task.shell.config};
    return record_of(session.load_once(task.site.url, task.load_index));
  } catch (const std::exception& e) {
    return failed_record(e);
  }
}

/// ReplaySession::load_once split at the layer boundaries: ReplayWorld
/// build, EventLoop::run, teardown.
LoadRecord split_load(const Task& task, mm::obs::Tracer* tracer,
                      Phases& phases) {
  try {
    mm::core::SessionConfig config = task.shell.config;
    config.tracer = tracer;
    auto loop = std::make_unique<mm::net::EventLoop>();
    loop->set_event_limit(kEventLimit);
    const auto t0 = Clock::now();
    auto world = std::make_unique<mm::core::ReplayWorld>(
        *loop, task.site.store, config, mm::replay::OriginServerSet::Options{},
        task.load_index);
    const auto t1 = Clock::now();
    std::optional<mm::web::PageLoadResult> result;
    world->browser().load(task.site.url, [&result](mm::web::PageLoadResult r) {
      result = std::move(r);
    });
    loop->run();
    const auto t2 = Clock::now();
    world.reset();
    loop.reset();
    const auto t3 = Clock::now();
    phases = Phases{seconds_between(t0, t1) * 1e3,
                    seconds_between(t1, t2) * 1e3,
                    seconds_between(t2, t3) * 1e3};
    if (!result.has_value()) {
      throw std::runtime_error{"page load never completed"};
    }
    return record_of(*result);
  } catch (const std::exception& e) {
    return failed_record(e);
  }
}

Shell make_shell(const std::string& name,
                 std::vector<mm::experiment::ShellLayerSpec> layers,
                 const mm::util::Rng& root) {
  Shell shell{name, {}};
  if (!layers.empty()) {
    shell.config.shells = materialize_shell(name, std::move(layers)).shells;
  }
  shell.config.seed = root.fork("replay/shell/" + name).next();
  return shell;
}

Inputs build_inputs(const Options& options, mm::core::ParallelRunner& runner) {
  const auto start = Clock::now();
  const mm::util::Rng root{options.seed};
  const std::vector<mm::corpus::SiteSpec> drawn =
      alexa_specs_by_weight(root.fork("replay/specs"), kSites * kOversample);
  Inputs inputs;
  // Only the store and primary URL survive: the generated bodies are
  // recorded into the store and dropped.
  inputs.sites = runner.map(kSites, [&](int i) {
    const mm::corpus::GeneratedSite site = mm::corpus::generate_site(
        drawn[static_cast<std::size_t>(i * kOversample + kOversample / 2)]);
    mm::core::SessionConfig config;
    config.seed = root.fork("replay/record/" + std::to_string(i)).next();
    mm::core::RecordSession session{site, mm::corpus::LiveWebConfig{},
                                    config};
    return Site{site.primary_url(), session.record()};
  });
  const double record_s = seconds_between(start, Clock::now());

  inputs.order.resize(kSites);
  for (int i = 0; i < kSites; ++i) {
    inputs.order[static_cast<std::size_t>(i)] = i;
  }
  mm::util::Rng order_rng = root.fork("replay/order");
  for (int i = kSites - 1; i > 0; --i) {
    std::swap(inputs.order[static_cast<std::size_t>(i)],
              inputs.order[static_cast<std::size_t>(
                  order_rng.uniform_int(0, i))]);
  }

  inputs.shells.push_back(make_shell(
      "cable", {delay_layer(10'000), link_layer(5, 12)}, root));
  inputs.shells.push_back(
      make_shell("lte", {delay_layer(30'000), lte_link_layer()}, root));
  inputs.shells.push_back(make_shell("bare", {}, root));

  runner.map(options.threads, [&](int worker) {
    return load(task_for(inputs, kWarmupBase + worker)).ok ? 1 : 0;
  });
  inputs.record_share = record_s / seconds_between(start, Clock::now());
  return inputs;
}

void digest_load(Digest& digest, int index, const LoadRecord& record) {
  digest.value(index);
  digest.value(record.plt);
  digest.value(record.objects);
  digest.value(record.bytes);
}

void run_untraced(const Options& options, mm::core::ParallelRunner& runner,
                  const Inputs& inputs, Outcome& outcome) {
  double wall_s = 0;
  const auto done = closed_loop<LoadRecord>(
      runner, options.threads, options.seconds, kPrefix,
      [&](int index) { return load(task_for(inputs, index)); }, wall_s);
  report_loop(task_times(done), static_cast<double>(done.size()), wall_s,
              outcome);

  Digest digest;
  std::vector<const Done<LoadRecord>*> rechecks;
  for (const auto& task : done) {
    ++outcome.attempted;
    if (!task.result.ok) {
      ++outcome.failed;
      outcome.check(false, "load " + std::to_string(task.index) +
                               " failed: " + task.result.error);
    }
    if (task.index < kPrefix) {
      digest_load(digest, task.index, task.result);
    }
    if (task.index % kRecheckEvery == 0) {
      rechecks.push_back(&task);
    }
  }
  outcome.sim_digest = digest.state;
  const auto again =
      runner.map(static_cast<int>(rechecks.size()), [&](int k) {
        const int index = rechecks[static_cast<std::size_t>(k)]->index;
        return load(task_for(inputs, index));
      });
  for (std::size_t k = 0; k < rechecks.size(); ++k) {
    outcome.check(again[k] == rechecks[k]->result,
                  "load " + std::to_string(rechecks[k]->index) +
                      " does not recompute bit-exactly");
  }
}

struct TracedLoad {
  Phases phases;
  double traced_ms{0};
  double matcher_ms{0};
  TraceCounts counts;
  std::uint64_t exported{0};
  LoadRecord untraced;
  LoadRecord traced;
  LoadRecord reference;
};

TracedLoad traced_load(const Task& task, bool exports) {
  TracedLoad r;
  r.untraced = split_load(task, nullptr, r.phases);
  mm::obs::Tracer tracer;
  Phases traced_phases;
  r.traced = split_load(task, &tracer, traced_phases);
  r.traced_ms = traced_phases.total();
  const mm::obs::TraceBuffer buffer = tracer.take();
  r.counts.add(buffer);
  if (exports) {
    r.exported = artifact_bytes(buffer);
  }
  const auto matcher_start = Clock::now();
  { const mm::replay::Matcher matcher{task.site.store}; }
  r.matcher_ms = ms_since(matcher_start);
  r.reference = load(task);
  return r;
}

void run_traced(const Options& options, mm::core::ParallelRunner& runner,
                const Inputs& inputs, Outcome& outcome) {
  double wall_s = 0;
  const auto done = closed_loop<TracedLoad>(
      runner, options.threads, options.seconds, kPrefix,
      [&](int index) {
        return traced_load(task_for(inputs, index), index < kPrefix);
      },
      wall_s);

  SplitTotals totals;
  double link_run_ms = 0, link_pkts = 0;
  double objects = 0, bytes = 0, plt_ms = 0;
  Digest digest;
  for (const auto& task : done) {
    const TracedLoad& r = task.result;
    ++outcome.attempted;
    if (!r.reference.ok) {
      ++outcome.failed;
    }
    outcome.check(r.untraced == r.reference && r.traced == r.reference,
                  "load " + std::to_string(task.index) +
                      ": split or traced path differs from load_once");
    totals.add(r.phases, r.traced_ms, r.matcher_ms);
    // Bare-shell loads cross no link queue; they would dilute the ratio.
    if (task_for(inputs, task.index).shell.name != "bare") {
      link_run_ms += r.phases.run_ms;
      link_pkts += static_cast<double>(r.counts.link_pkts);
    }
    if (task.index < kPrefix) {
      digest_load(digest, task.index, r.reference);
      totals.prefix.merge(r.counts);
      totals.exported_bytes += static_cast<double>(r.exported);
      objects += static_cast<double>(r.reference.objects);
      bytes += static_cast<double>(r.reference.bytes);
      plt_ms += mm::to_ms(r.reference.plt);
    }
  }
  outcome.sim_digest = digest.state;
  totals.report(kPrefix, outcome);
  auto& m = outcome.metrics;
  m["net.ns_per_pkt"] = link_run_ms * 1e6 / link_pkts;
  m["web.objects_per_task"] = objects / kPrefix;
  m["web.kbytes_per_task"] = bytes / 1e3 / kPrefix;
  m["sim.plt_ms_mean"] = plt_ms / kPrefix;

  double exchanges = 0, response_bytes = 0;
  for (const Site& site : inputs.sites) {
    exchanges += static_cast<double>(site.store.size());
    response_bytes += static_cast<double>(site.store.total_response_bytes());
  }
  m["record.exchanges_per_site"] = exchanges / kSites;
  m["record.response_kb_per_site"] = response_bytes / 1e3 / kSites;
  m["record.setup_frac"] = inputs.record_share;
  m["net.queue_ns_per_pkt"] = queue_ns_per_pkt({mm::net::QueueSpec{}});
}

}  // namespace

Outcome run_replay_alexa500(const Options& options,
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
