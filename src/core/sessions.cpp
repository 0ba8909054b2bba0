#include "core/sessions.hpp"

#include <stdexcept>

#include "record/proxy.hpp"
#include "replay/origin_servers.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mahimahi::core {
namespace {

constexpr std::size_t kEventLimit = 200'000'000;

web::PageLoadResult run_load(net::EventLoop& loop, web::Browser& browser,
                             const std::string& url,
                             const SessionConfig& config = {}) {
  std::optional<web::PageLoadResult> result;
  browser.load(url, [&](web::PageLoadResult r) { result = std::move(r); });
  if (config.deadline > 0) {
    // Watchdog: run only up to the virtual deadline. A load that has not
    // finished by then is a runaway simulation — abort it with a typed
    // error rather than draining (possibly forever-rescheduling) events.
    loop.run_until(config.deadline);
    if (!result.has_value()) {
      if (config.tracer != nullptr) {
        config.tracer->event(config.deadline, obs::Layer::kRunner,
                             obs::EventKind::kWatchdogExpired,
                             config.trace_session, 0, 0,
                             to_ms(config.deadline), url);
      }
      throw WatchdogError{"watchdog: page load exceeded " +
                          std::to_string(config.deadline / 1000) +
                          " ms of virtual time (deadline)"};
    }
    return std::move(*result);
  }
  loop.run();
  if (!result.has_value()) {
    throw std::runtime_error{"page load never completed (event loop drained)"};
  }
  return std::move(*result);
}

/// Live-web config for one session: a single controller reaches the
/// origin servers' side of every flow, not just the browser's. The live
/// web runs one controller on its origins, so a mixed list leaves them on
/// the default (experiment specs reject that combination).
corpus::LiveWebConfig session_live_web(const SessionConfig& config,
                                       corpus::LiveWebConfig web) {
  if (config.controllers.size() == 1) {
    web.tcp.congestion_control = config.controllers.front();
  }
  return web;
}

/// Replay origin-server options for one namespace: the caller's `options`
/// plus the session's controller list on the server side of every flow,
/// the namespace's trace tag and its fault plan. Throws
/// std::invalid_argument when the browser and the origins would speak
/// different protocols (every object would fail to parse).
replay::OriginServerSet::Options origin_options(
    const SessionConfig& config, replay::OriginServerSet::Options options,
    const fault::FaultPlan& plan, std::int32_t trace_session) {
  const bool mux_browser =
      config.browser.protocol == web::AppProtocol::kMultiplexed;
  if (mux_browser != options.multiplexed) {
    throw std::invalid_argument{
        std::string{"protocol mismatch: BrowserConfig::protocol "} +
        (mux_browser ? "mux" : "http11") +
        " but OriginServerSet::Options::multiplexed " +
        (options.multiplexed ? "true" : "false")};
  }
  options.tcp.tracer = config.tracer;
  options.tcp.trace_session = trace_session;
  if (!config.controllers.empty()) {
    options.cc_fleet = config.controllers;
  }
  if (plan.active()) {
    options.fault = plan;
  }
  return options;
}

}  // namespace

util::Rng session_load_rng(const SessionConfig& config, int load_index) {
  util::Rng root{config.seed ^ config.host.seed_salt};
  return root.fork("load-" + std::to_string(load_index));
}

web::BrowserConfig session_browser_config(const SessionConfig& config) {
  web::BrowserConfig browser = scaled_browser(config.browser, config.host);
  browser.tcp.tracer = config.tracer;
  browser.tcp.trace_session = config.trace_session;
  if (!config.controllers.empty()) {
    browser.cc_fleet = config.controllers;
  }
  if (config.fault.any() && !config.fault.client.no_retry) {
    // A faulted world gets the plan's client policy; "noretry" measures
    // the undefended baseline. Healthy sessions keep resilience off so
    // their event sequences are untouched.
    browser.resilience.request_deadline = config.fault.client.request_deadline;
    browser.resilience.max_retries = config.fault.client.max_retries;
    browser.resilience.backoff_base = config.fault.client.backoff_base;
    browser.resilience.backoff_max = config.fault.client.backoff_max;
    browser.resilience.backoff_jitter = config.fault.client.backoff_jitter;
  }
  return browser;
}

// --- ReplayNamespace -----------------------------------------------------

ReplayNamespace::ReplayNamespace(
    net::EventLoop& loop, const record::RecordStore& store,
    const SessionConfig& config,
    const replay::OriginServerSet::Options& options,
    std::uint64_t fault_plan_seed, const util::Rng& shell_rng,
    std::int32_t trace_session)
    : plan_{config.fault, fault_plan_seed},
      fabric_{loop},
      // ReplayShell: one server per recorded (IP, port) — or the
      // single-server ablation — plus a local DNS (dnsmasq equivalent).
      servers_{fabric_, store,
               origin_options(config, options, plan_, trace_session)},
      dns_server_{fabric_,
                  net::Address{fabric_.allocate_server_ip(), net::kDnsPort},
                  servers_.dns_table()} {
  dns_server_.set_tracer(config.tracer, trace_session);
  if (plan_.spec().dns.any()) {
    dns_server_.set_fault_hook([plan = plan_](std::uint64_t query_index) {
      return plan.dns_query_fault(query_index);
    });
  }

  // Fault elements sit innermost (application side, chain index 0): the
  // flap blackhole and corruption hit browser traffic before any shell.
  if (plan_.spec().flap.has_value()) {
    const auto& flap = *plan_.spec().flap;
    auto box = std::make_unique<net::FlapBox>(loop, flap.period, flap.down,
                                              flap.offset);
    box->set_tracer(config.tracer, trace_session);
    fabric_.chain().push_back(std::move(box));
  }
  if (plan_.spec().corrupt.has_value()) {
    auto box = std::make_unique<net::CorruptBox>(plan_.plan_seed(),
                                                 plan_.spec().corrupt->rate);
    box->set_tracer(config.tracer, trace_session, &loop);
    fabric_.chain().push_back(std::move(box));
  }

  // Nested shells between the application and the replayed servers.
  apply_shells(fabric_, config.shells, config.host, shell_rng, config.tracer,
               trace_session);
}

// --- ReplayWorld ---------------------------------------------------------

ReplayWorld::ReplayWorld(net::EventLoop& loop,
                         const record::RecordStore& store,
                         const SessionConfig& config,
                         const replay::OriginServerSet::Options& options,
                         int load_index)
    : ReplayWorld(loop, store, config, options,
                  session_load_rng(config, load_index)) {}

// The fault plan's seed forks from the load RNG (fork is const, so a
// fault-free session draws nothing extra); the shells take the load RNG
// itself, and the browser its "browser" fork.
ReplayWorld::ReplayWorld(net::EventLoop& loop,
                         const record::RecordStore& store,
                         const SessionConfig& config,
                         const replay::OriginServerSet::Options& options,
                         const util::Rng& rng)
    : namespace_{loop, store, config, options,
                 rng.fork("fault-plan").next(), rng, config.trace_session},
      browser_{namespace_.fabric(), namespace_.dns(),
               session_browser_config(config), rng.fork("browser")} {}

web::BrowserConfig scaled_browser(const web::BrowserConfig& base,
                                  const HostProfile& host) {
  web::BrowserConfig scaled = base;
  scaled.html_parse_us_per_byte *= host.compute_scale;
  scaled.css_parse_us_per_byte *= host.compute_scale;
  scaled.js_exec_us_per_byte *= host.compute_scale;
  scaled.image_decode_us_per_byte *= host.compute_scale;
  scaled.other_us_per_byte *= host.compute_scale;
  scaled.per_object_overhead = static_cast<Microseconds>(
      static_cast<double>(base.per_object_overhead) * host.compute_scale);
  scaled.request_issue_cost = static_cast<Microseconds>(
      static_cast<double>(base.request_issue_cost) * host.compute_scale);
  scaled.parallel_object_overhead = static_cast<Microseconds>(
      static_cast<double>(base.parallel_object_overhead) * host.compute_scale);
  scaled.final_layout_cost = static_cast<Microseconds>(
      static_cast<double>(base.final_layout_cost) * host.compute_scale);
  return scaled;
}

// --- ReplaySession -------------------------------------------------------

ReplaySession::ReplaySession(const record::RecordStore& store,
                             SessionConfig config, Options options)
    : store_{store}, config_{std::move(config)}, options_{options} {}

web::PageLoadResult ReplaySession::load_once(const std::string& url,
                                             int load_index) const {
  net::EventLoop loop;
  loop.set_event_limit(kEventLimit);
  ReplayWorld world{loop, store_, config_, options_, load_index};
  return run_load(loop, world.browser(), url, config_);
}

util::Samples ReplaySession::measure(const std::string& url, int count,
                                     ParallelRunner& runner) const {
  // Each load is fully isolated (fresh event loop, fabric, servers,
  // browser) and seeded from (seed, load_index) alone, so fanning the
  // loads across threads and merging by index reproduces the sequential
  // sample sequence exactly. Failure warnings are logged after the merge,
  // in load order, so diagnostic output is deterministic too.
  const auto results = runner.map(
      count, [this, &url](int i) { return load_once(url, i); });
  util::Samples samples;
  for (int i = 0; i < count; ++i) {
    const auto& result = results[static_cast<std::size_t>(i)];
    if (!result.success) {
      MAHI_WARN("replay-session")
          << "load " << i << " of " << url << " had failures ("
          << result.objects_failed << " objects)";
    }
    samples.add(to_ms(result.page_load_time));
  }
  return samples;
}

util::Samples ReplaySession::measure(const std::string& url, int count) const {
  return measure(url, count, ParallelRunner::shared());
}

// --- RecordSession -------------------------------------------------------

RecordSession::RecordSession(const corpus::GeneratedSite& site,
                             corpus::LiveWebConfig web, SessionConfig config)
    : site_{site}, web_{web}, config_{std::move(config)} {}

record::RecordStore RecordSession::record(web::PageLoadResult* result_out) {
  util::Rng rng = session_load_rng(config_, 0);

  net::EventLoop loop;
  loop.set_event_limit(kEventLimit);
  // Outer fabric: the Internet, with per-origin delays.
  net::Fabric outer{loop};
  corpus::LiveWeb live{outer, site_, session_live_web(config_, web_),
                       rng.fork("live-web")};
  // Inner fabric: the namespace the application runs in; shells may nest.
  net::Fabric inner{loop};
  apply_shells(inner, config_.shells, config_.host, rng);

  record::RecordStore store;
  record::RecordingProxy proxy{inner, outer, store};

  // The application's resolver: forwards the live web's bindings from
  // inside the namespace (the host stub resolver mahimahi exposes).
  const net::Ipv4 dns_ip = inner.allocate_server_ip();
  net::DnsServer dns_server{inner, net::Address{dns_ip, net::kDnsPort},
                            live.dns_table()};

  web::Browser browser{inner, dns_server.address(), session_browser_config(config_),
                       rng.fork("browser")};
  auto result = run_load(loop, browser, site_.primary_url());
  if (result_out != nullptr) {
    *result_out = std::move(result);
  }
  return store;
}

// --- LiveWebSession -------------------------------------------------------

LiveWebSession::LiveWebSession(const corpus::GeneratedSite& site,
                               corpus::LiveWebConfig web, SessionConfig config)
    : site_{site}, web_{web}, config_{std::move(config)} {}

LiveWebSession::LoadOutcome LiveWebSession::load_outcome(int load_index) const {
  util::Rng rng = session_load_rng(config_, load_index);
  net::EventLoop loop;
  loop.set_event_limit(kEventLimit);
  net::Fabric fabric{loop};
  corpus::LiveWeb live{fabric, site_, session_live_web(config_, web_),
                       rng.fork("live-web")};
  LoadOutcome outcome;
  outcome.primary_rtt = live.primary_rtt();
  apply_shells(fabric, config_.shells, config_.host, rng);
  web::Browser browser{fabric, live.dns_server_address(),
                       session_browser_config(config_), rng.fork("browser")};
  outcome.result = run_load(loop, browser, site_.primary_url(), config_);
  return outcome;
}

Microseconds live_primary_one_way(const SessionConfig& config,
                                  const corpus::LiveWebConfig& web,
                                  int load_index) {
  // The same stream load_outcome hands the LiveWeb it builds.
  util::Rng rng = session_load_rng(config, load_index).fork("live-web");
  return corpus::LiveWeb::primary_one_way(web, rng);
}

}  // namespace mahimahi::core
