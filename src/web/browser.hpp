#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/dns.hpp"
#include "net/fetch_hooks.hpp"
#include "net/http_session.hpp"
#include "net/mux.hpp"
#include "obs/trace.hpp"
#include "util/random.hpp"
#include "web/discovery.hpp"

namespace mahimahi::web {

/// Application protocol the browser speaks to origins.
enum class AppProtocol {
  kHttp11,        // six keep-alive connections per origin, no pipelining
  kMultiplexed,   // SPDY-like: one connection per origin, many streams
};

/// Tunables of the page-load model. Defaults approximate a 2014 desktop
/// Chrome on commodity hardware, calibrated against the paper's Table 1
/// page-load times (experiments/paper/table1.mx); the sensitivity of the
/// request and connection limits is charted in
/// experiments/paper/ablation.mx.
struct BrowserConfig {
  AppProtocol protocol{AppProtocol::kHttp11};
  /// HTTP/1.1 connection pool: per-origin parallelism (Chrome uses 6).
  /// This limit is the mechanism behind the paper's multi-origin result:
  /// one origin = 6 total connections; twenty origins = up to 120.
  int max_connections_per_origin{6};
  /// Total socket cap across origins (Chrome's pool is effectively ~256).
  std::size_t max_total_connections{256};
  /// Global in-flight request throttle — Chrome's resource scheduler keeps
  /// roughly this many requests outstanding at once and queues the rest.
  std::size_t max_concurrent_requests{24};

  // --- compute model. HTML/CSS/JS serialize on the main thread (parsing
  // and script execution block each other, as in a real browser); images,
  // fonts and data decode off-thread, in parallel.
  double html_parse_us_per_byte{0.50};
  double css_parse_us_per_byte{0.30};
  double js_exec_us_per_byte{2.20};
  double image_decode_us_per_byte{0.05};
  double other_us_per_byte{0.02};
  /// Fixed main-thread cost per HTML/CSS/JS object (style/layout churn).
  Microseconds per_object_overhead{5'000};
  /// Fixed off-thread cost per image/font/data object.
  Microseconds parallel_object_overhead{800};
  /// Main-thread cost to issue one request (cache lookup, socket setup).
  /// Spaces out the request storm that follows HTML parsing, as a real
  /// browser's resource scheduler does.
  Microseconds request_issue_cost{300};
  /// Final layout + paint after the last object.
  Microseconds final_layout_cost{40'000};
  /// Multiplicative lognormal jitter applied to every compute task —
  /// models scheduling noise; the source of run-to-run PLT variance on a
  /// single machine (paper Table 1 reports ~1% coefficient of variation).
  double compute_jitter_sigma{0.03};

  /// Give up on a page when nothing completes for this long.
  Microseconds stall_timeout{60'000'000};

  /// Resilience policy: per-request deadlines plus capped exponential
  /// backoff with jittered-but-seeded retries. Disabled by default —
  /// page loads behave exactly as before (no timers armed, no extra RNG
  /// draws), keeping healthy-world runs byte-identical.
  struct ResilienceConfig {
    /// Abort a request not answered within this long. 0 = no deadline.
    Microseconds request_deadline{0};
    /// Re-fetch a failed object up to this many times before giving up.
    int max_retries{0};
    Microseconds backoff_base{500'000};
    Microseconds backoff_max{8'000'000};
    /// Multiplicative jitter on each backoff, uniform in [1-j, 1+j],
    /// drawn from the browser's seeded RNG (deterministic).
    double backoff_jitter{0.1};

    [[nodiscard]] bool enabled() const {
      return request_deadline > 0 || max_retries > 0;
    }
  };
  ResilienceConfig resilience{};

  /// Transport knobs for every connection the browser opens — notably
  /// `tcp.congestion_control`, the uplink-side controller (request bytes;
  /// the server side is configured where the servers are built, e.g.
  /// replay::OriginServerSet::Options::tcp).
  net::TcpConnection::Config tcp{};

  /// Per-connection-index controller fleet (ROADMAP's mixed-CC axis): when
  /// non-empty, the k-th connection this load opens — counted across all
  /// origins in opening order, HTTP/1.1 pool entries and mux connections
  /// alike — runs cc_fleet[k % size()] instead of tcp.congestion_control.
  /// Opening order is deterministic under the measurement engine, so the
  /// assignment is reproducible. Empty = homogeneous (tcp's controller).
  std::vector<std::string> cc_fleet;
};

/// Outcome of one page load.
struct PageLoadResult {
  bool success{false};
  Microseconds page_load_time{0};
  /// Loop-clock time at which the load began. On a private per-load loop
  /// this is 0; under fleet::SessionMux it is the session's arrival time,
  /// letting callers audit that a load's events stayed on its own session
  /// clock (finish = started_at + page_load_time).
  Microseconds started_at{0};
  std::size_t objects_loaded{0};
  std::size_t objects_failed{0};
  /// Re-fetch attempts the resilience policy issued (0 when disabled).
  std::size_t retries{0};
  /// Request deadlines that expired (each may then have been retried).
  std::size_t timeouts{0};
  /// True when the load completed without every object (graceful
  /// degradation: the page is up, some resources are missing).
  bool degraded{false};
  /// PLT excluding trailing failure detection: time until the last
  /// *successful* object plus final layout. Equal to page_load_time on a
  /// clean load; under faults it is the "page looked done" time, bounded
  /// above by page_load_time.
  Microseconds degraded_page_load_time{0};
  std::uint64_t bytes_downloaded{0};
  std::size_t origins_contacted{0};
  std::size_t connections_opened{0};
  std::vector<std::string> errors;
};

/// The measurement application: a model browser that performs page loads
/// over the simulated network. It resolves names through the namespace's
/// DNS, opens per-origin HTTP/1.1 keep-alive connection pools, discovers
/// subresources by scanning delivered bytes (HTML src/href, CSS url(),
/// script fetch markers), charges main-thread compute for parsing and
/// script execution, and reports page load time — the metric every
/// experiment in the paper is built on.
class Browser {
 public:
  using LoadCallback = std::function<void(PageLoadResult)>;

  Browser(net::Fabric& fabric, net::Address dns_server, BrowserConfig config,
          util::Rng rng);
  ~Browser();

  Browser(const Browser&) = delete;
  Browser& operator=(const Browser&) = delete;

  /// Begin loading `url`. One load at a time per Browser; a reused
  /// Browser starts its next load only once the loop has run past the
  /// previous load's events (they refer to its per-fetch records, which
  /// this call resets).
  void load(const std::string& url, LoadCallback on_done);

  [[nodiscard]] bool loading() const { return loading_; }

 private:
  struct OriginPool;
  struct PoolEntry;

  /// Transport config for the next connection to open: tcp, with the
  /// fleet's per-connection-index controller applied when one is set.
  [[nodiscard]] net::TcpConnection::Config next_connection_config() const;

  /// Per-URL fetch record: the parsed URL plus the resilience layer's
  /// retry/deadline bookkeeping. Created when the URL is first scheduled
  /// and kept until the next load() clears fetches_; map nodes never move,
  /// so events and pool queues hold a Fetch by pointer instead of copying
  /// its URL into each callback.
  struct FetchState {
    http::Url url;
    int attempts{0};  ///< attempts that have *failed* so far
    /// Bumped when a deadline expires: a late mux response whose captured
    /// generation no longer matches is stale and must not double-account.
    std::uint64_t generation{0};
    net::EventLoop::EventId deadline_event{0};
    net::EventLoop::EventId retry_event{0};
  };
  /// A fetches_ entry: `first` is the URL's string form (the map key),
  /// `second` its state.
  using Fetch = std::map<std::string, FetchState>::value_type;

  // --- observability. The tracer rides in config_.tcp (so TCP-layer
  // events share it); these helpers add the browser's per-object
  // waterfall on top. All are no-ops when no tracer is installed.
  [[nodiscard]] obs::Tracer* tracer() const { return config_.tcp.tracer; }
  /// Find-or-create the waterfall record for `url`; null without a tracer.
  obs::ObjectRecord* trace_object(const http::Url& url);
  void trace_event(obs::EventKind kind, std::uint64_t value,
                   const std::string& label);
  /// Transport-edge hooks stamping request_sent / first_byte. Empty (zero
  /// overhead) without a tracer.
  [[nodiscard]] net::FetchHooks make_fetch_hooks(const http::Url& url);

  void schedule_fetch(const http::Url& url);
  void on_resolved(Fetch& fetch, std::optional<net::Ipv4> ip);
  OriginPool& pool_for(const http::Url& url, net::Ipv4 ip);
  void pump(OriginPool& pool);
  void pump_mux(OriginPool& pool);
  void pump_all();
  /// Issues `fetch` on the HTTP/1.1 pool connection `entry`.
  void issue(std::shared_ptr<PoolEntry> entry, Fetch& fetch);
  /// Runs `send` once the main thread has paid the request issue cost
  /// (at once when that cost is zero).
  template <typename Send>
  void issue_on_main_thread(Send send);
  void on_response(Fetch& fetch, http::Response response);
  void on_object_computed(const http::Url& url, http::ResourceKind kind,
                          std::string body);
  void object_finished(bool ok, const std::string& error = {});
  void maybe_finish();
  void finish();
  void arm_stall_timer();

  // --- resilience layer ---
  /// One attempt at `url` failed (connection error, DNS failure, deadline).
  /// Schedules a seeded-backoff retry while attempts remain; otherwise
  /// fails the object for good.
  void attempt_failed(Fetch& fetch, const std::string& reason,
                      bool timed_out);
  /// Arm the per-request deadline for `fetch`; on expiry `on_expire` (a
  /// `bool()` callable) undoes the protocol-specific in-flight accounting
  /// and returns whether the request was in fact still pending (false =
  /// raced with completion, do nothing). No-op unless the resilience
  /// policy sets a deadline.
  template <typename OnExpire>
  void arm_deadline(Fetch& fetch, OnExpire on_expire);
  void cancel_deadline(FetchState& state);
  void cancel_fetch_timers();
  void fill_degraded_plt();

  [[nodiscard]] Microseconds compute_cost(http::ResourceKind kind,
                                          std::size_t bytes);

  net::Fabric& fabric_;
  net::EventLoop& loop_;
  net::DnsClient dns_;
  BrowserConfig config_;
  util::Rng rng_;

  // --- per-load state ---
  bool loading_{false};
  LoadCallback on_done_;
  std::string page_url_;  // for the traced PageRecord
  Microseconds started_at_{0};
  std::size_t outstanding_objects_{0};
  std::size_t in_flight_requests_{0};
  Microseconds main_thread_busy_until_{0};
  std::map<std::string, std::unique_ptr<OriginPool>> pools_;
  /// One entry per URL scheduled this load (doubles as the seen set).
  std::map<std::string, FetchState> fetches_;
  Microseconds last_success_time_{0};
  PageLoadResult result_;
  net::EventLoop::EventId stall_event_{0};
  net::EventLoop::EventId finish_event_{0};
};

}  // namespace mahimahi::web
