// crowd-shared: shared-world SessionMux runs — 32 users loading one
// nytimes-like page through one cable shell and one origin farm —
// alternating HTTP/1.1 and multiplexed muxes.

#include <array>
#include <memory>
#include <stdexcept>

#include "core/sessions.hpp"
#include "fleet/session_mux.hpp"
#include "replay/matcher.hpp"
#include "workloads.hpp"

namespace mmbench {
namespace mm = mahimahi;
namespace {

constexpr int kUsers = 32;
constexpr int kPrefix = 8;
constexpr int kRecheckEvery = 16;
constexpr mm::Microseconds kStagger = 25'000;

struct Inputs {
  std::string url;
  mm::record::RecordStore store;
  std::array<mm::fleet::MuxConfig, 2> configs;  // HTTP/1.1, multiplexed
  std::uint64_t seed{0};
  double record_share{0};
};

mm::fleet::MuxConfig mux_config(const Inputs& inputs, int index) {
  mm::fleet::MuxConfig config =
      inputs.configs[static_cast<std::size_t>(index % 2)];
  config.fleet_seed = mm::util::Rng{inputs.seed}
                          .fork("crowd/mux/" + std::to_string(index))
                          .next();
  return config;
}

struct MuxRecord {
  std::string outcomes;  // fleet::serialize_outcomes bytes
  std::uint32_t ok_sessions{0};
  double objects{0};
  double bytes{0};
  double plt_ms{0};
  std::size_t peak_live{0};
  std::string error;
};

MuxRecord run_mux(const Inputs& inputs, int index, mm::obs::Tracer* tracer,
                  Phases& phases) {
  MuxRecord r;
  try {
    mm::fleet::MuxConfig config = mux_config(inputs, index);
    config.session.tracer = tracer;
    const auto t0 = Clock::now();
    auto mux = std::make_unique<mm::fleet::SessionMux>(inputs.store,
                                                       inputs.url, config);
    for (int user = 0; user < kUsers; ++user) {
      mux->add_session(user);
    }
    const auto t1 = Clock::now();
    const std::vector<mm::fleet::SessionOutcome> sessions = mux->run();
    const auto t2 = Clock::now();
    r.peak_live = mux->peak_live_sessions();
    mux.reset();
    const auto t3 = Clock::now();
    phases = Phases{seconds_between(t0, t1) * 1e3,
                    seconds_between(t1, t2) * 1e3,
                    seconds_between(t2, t3) * 1e3};
    r.outcomes = mm::fleet::serialize_outcomes(sessions);
    for (const mm::fleet::SessionOutcome& s : sessions) {
      r.ok_sessions += s.success != 0 ? 1 : 0;
      r.objects += s.objects_loaded;
      r.bytes += static_cast<double>(s.bytes_downloaded);
      r.plt_ms += s.plt_ms;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

MuxRecord run_mux(const Inputs& inputs, int index) {
  Phases ignored;
  return run_mux(inputs, index, nullptr, ignored);
}

Inputs build_inputs(const Options& options, mm::core::ParallelRunner& runner) {
  const auto start = Clock::now();
  const mm::util::Rng root{options.seed};
  Inputs inputs;
  inputs.seed = options.seed;
  {
    const mm::corpus::GeneratedSite site =
        mm::corpus::generate_site(mm::corpus::nytimes_like_spec());
    mm::core::SessionConfig config;
    config.seed = root.fork("crowd/record").next();
    mm::core::RecordSession session{site, mm::corpus::LiveWebConfig{}, config};
    inputs.store = session.record();
    inputs.url = site.primary_url();
  }
  const double record_s = seconds_between(start, Clock::now());
  const auto shells =
      materialize_shell("cable", {delay_layer(10'000), link_layer(12, 48)})
          .shells;
  for (int p = 0; p < 2; ++p) {
    mm::fleet::MuxConfig& config = inputs.configs[static_cast<std::size_t>(p)];
    const bool multiplexed = p == 1;
    config.stagger = kStagger;
    config.shared_world = true;
    config.session.shells = shells;
    // Both ends must speak the same protocol: the browser's setting alone
    // leaves the origins on HTTP/1.1 and every session fails to parse.
    config.session.browser.protocol = multiplexed
                                          ? mm::web::AppProtocol::kMultiplexed
                                          : mm::web::AppProtocol::kHttp11;
    config.origin.multiplexed = multiplexed;
  }
  runner.map(options.threads, [&](int worker) {
    return static_cast<int>(run_mux(inputs, kWarmupBase + worker).ok_sessions);
  });
  inputs.record_share = record_s / seconds_between(start, Clock::now());
  return inputs;
}

void account(const Done<MuxRecord>& task, Outcome& outcome) {
  outcome.attempted += kUsers;
  const std::uint32_t failed = kUsers - task.result.ok_sessions;
  if (failed != 0) {
    outcome.failed += failed;
    outcome.check(false, "mux " + std::to_string(task.index) + ": " +
                             std::to_string(failed) + " sessions failed " +
                             task.result.error);
  }
}

void run_untraced(const Options& options, mm::core::ParallelRunner& runner,
                  const Inputs& inputs, Outcome& outcome) {
  double wall_s = 0;
  const auto done = closed_loop<MuxRecord>(
      runner, options.threads, options.seconds, kPrefix,
      [&](int index) { return run_mux(inputs, index); }, wall_s);
  Digest digest;
  std::vector<const Done<MuxRecord>*> rechecks;
  for (const auto& task : done) {
    account(task, outcome);
    if (task.index < kPrefix) {
      digest.bytes(task.result.outcomes);
    }
    if (task.index % kRecheckEvery == 0) {
      rechecks.push_back(&task);
    }
  }
  report_loop(task_times(done), static_cast<double>(done.size()) * kUsers,
              wall_s, outcome);
  outcome.sim_digest = digest.state;
  const auto again =
      runner.map(static_cast<int>(rechecks.size()), [&](int k) {
        return run_mux(inputs, rechecks[static_cast<std::size_t>(k)]->index)
            .outcomes;
      });
  for (std::size_t k = 0; k < rechecks.size(); ++k) {
    outcome.check(again[k] == rechecks[k]->result.outcomes,
                  "mux " + std::to_string(rechecks[k]->index) +
                      " does not recompute byte-identically");
  }
}

struct TracedMux {
  Phases phases;
  double traced_ms{0};
  double matcher_ms{0};
  TraceCounts counts;
  std::uint64_t exported{0};
  MuxRecord untraced;
  MuxRecord traced;
};

TracedMux traced_mux(const Inputs& inputs, int index, bool exports) {
  TracedMux r;
  r.untraced = run_mux(inputs, index, nullptr, r.phases);
  mm::obs::Tracer tracer;
  Phases traced_phases;
  r.traced = run_mux(inputs, index, &tracer, traced_phases);
  r.traced_ms = traced_phases.total();
  const mm::obs::TraceBuffer buffer = tracer.take();
  r.counts.add(buffer);
  if (exports) {
    r.exported = artifact_bytes(buffer);
  }
  const auto matcher_start = Clock::now();
  { const mm::replay::Matcher matcher{inputs.store}; }
  r.matcher_ms = ms_since(matcher_start);
  return r;
}

void run_traced(const Options& options, mm::core::ParallelRunner& runner,
                const Inputs& inputs, Outcome& outcome) {
  double wall_s = 0;
  const auto done = closed_loop<TracedMux>(
      runner, options.threads, options.seconds, kPrefix,
      [&](int index) { return traced_mux(inputs, index, index < kPrefix); },
      wall_s);
  SplitTotals totals;
  double pkts = 0, objects = 0, bytes = 0, plt_ms = 0;
  std::size_t peak_live = 0;
  Digest digest;
  for (const auto& task : done) {
    const TracedMux& r = task.result;
    account(Done<MuxRecord>{task.index, task.ms, r.untraced}, outcome);
    outcome.check(r.traced.outcomes == r.untraced.outcomes,
                  "mux " + std::to_string(task.index) +
                      ": tracing changed the outcomes");
    totals.add(r.phases, r.traced_ms, r.matcher_ms);
    pkts += static_cast<double>(r.counts.link_pkts);
    if (task.index < kPrefix) {
      digest.bytes(r.untraced.outcomes);
      totals.prefix.merge(r.counts);
      totals.exported_bytes += static_cast<double>(r.exported);
      objects += r.untraced.objects;
      bytes += r.untraced.bytes;
      plt_ms += r.untraced.plt_ms;
      peak_live = std::max(peak_live, r.untraced.peak_live);
    }
  }
  outcome.sim_digest = digest.state;
  totals.report(kPrefix, outcome);
  auto& m = outcome.metrics;
  m["net.ns_per_pkt"] = totals.untraced.run_ms * 1e6 / pkts;
  m["web.objects_per_task"] = objects / kPrefix;
  m["web.kbytes_per_task"] = bytes / 1e3 / kPrefix;
  m["fleet.peak_live_sessions"] = static_cast<double>(peak_live);
  m["sim.plt_ms_mean"] = plt_ms / (kPrefix * kUsers);
  m["record.exchanges_per_site"] = static_cast<double>(inputs.store.size());
  m["record.response_kb_per_site"] =
      static_cast<double>(inputs.store.total_response_bytes()) / 1e3;
  m["record.setup_frac"] = inputs.record_share;
  m["net.queue_ns_per_pkt"] = queue_ns_per_pkt({mm::net::QueueSpec{}});
}

}  // namespace

Outcome run_crowd_shared(const Options& options,
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
