#include "web/browser.hpp"

#include <algorithm>
#include <string_view>

#include "http/status.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mahimahi::web {
namespace {

/// Approximate wire overhead of response headers (for byte accounting).
constexpr std::uint64_t kHeaderOverheadBytes = 180;

/// The GET the browser sends for `url`, on either protocol.
http::Request get_request(const http::Url& url) {
  http::Request request;
  request.method = http::Method::kGet;
  request.target = url.request_target();
  std::string host_value = url.host;
  if (url.port != 0) {
    host_value += ':' + std::to_string(url.port);
  }
  request.headers.add("Host", std::move(host_value));
  request.headers.add("User-Agent", "mahimahi-model-browser/1.0");
  request.headers.add("Accept", "*/*");
  return request;
}

}  // namespace

/// One HTTP/1.1 keep-alive connection of an origin pool.
struct Browser::PoolEntry {
  std::unique_ptr<net::HttpClientConnection> connection;
  bool busy{false};
  Fetch* current{nullptr};  // valid while busy (error attribution)
};

/// One origin's connection pool. HTTP/1.1: up to
/// max_connections_per_origin keep-alive connections, each carrying one
/// request at a time (no pipelining — 2014 browser behaviour).
/// Multiplexed: a single mux connection carrying any number of streams.
struct Browser::OriginPool {
  net::Address server;
  std::deque<Fetch*> waiting;

  // shared_ptr so deferred request-issue events can hold weak references
  // that survive pool teardown (stall timeout mid-load).
  std::vector<std::shared_ptr<PoolEntry>> entries;

  // Multiplexed mode only.
  std::unique_ptr<net::mux::MuxClientConnection> mux;
  /// Fetches with a stream in flight on `mux`, keyed by their fetches_
  /// key — the connection's error callback fails exactly these (in URL
  /// order), and a deadline expiry removes its fetch so the late response
  /// cannot double-account.
  std::map<std::string_view, Fetch*> mux_inflight;
};

Browser::Browser(net::Fabric& fabric, net::Address dns_server,
                 BrowserConfig config, util::Rng rng)
    : fabric_{fabric},
      loop_{fabric.loop()},
      dns_{fabric, dns_server},
      config_{config},
      rng_{std::move(rng)} {
  dns_.set_tracer(config_.tcp.tracer, config_.tcp.trace_session);
}

obs::ObjectRecord* Browser::trace_object(const http::Url& url) {
  if (tracer() == nullptr) {
    return nullptr;
  }
  return &tracer()->object(config_.tcp.trace_session, url.to_string());
}

void Browser::trace_event(obs::EventKind kind, std::uint64_t value,
                          const std::string& label) {
  if (tracer() != nullptr) {
    tracer()->event(loop_.now(), obs::Layer::kBrowser, kind,
                    config_.tcp.trace_session, 0, value, 0, label);
  }
}

net::FetchHooks Browser::make_fetch_hooks(const http::Url& url) {
  net::FetchHooks hooks;
  if (tracer() == nullptr) {
    return hooks;
  }
  hooks.on_connected = [this, url] {
    if (auto* object = trace_object(url)) {
      object->connect_done = loop_.now();
    }
  };
  hooks.on_sent = [this, url] {
    if (auto* object = trace_object(url)) {
      object->request_sent = loop_.now();
      object->first_byte = -1;  // a retry's stale first-byte must not stick
    }
  };
  hooks.on_first_byte = [this, url] {
    if (auto* object = trace_object(url)) {
      object->first_byte = loop_.now();
    }
  };
  return hooks;
}

Browser::~Browser() {
  if (stall_event_ != 0) {
    loop_.cancel(stall_event_);
  }
  if (finish_event_ != 0) {
    loop_.cancel(finish_event_);
  }
  cancel_fetch_timers();
}

void Browser::load(const std::string& url_text, LoadCallback on_done) {
  MAHI_ASSERT_MSG(!loading_, "Browser::load while a load is in progress");
  MAHI_ASSERT(on_done != nullptr);
  const auto url = http::parse_url(url_text);
  if (!url || url->host.empty()) {
    PageLoadResult failed;
    failed.errors.push_back("unparseable URL: " + url_text);
    on_done(std::move(failed));
    return;
  }
  loading_ = true;
  on_done_ = std::move(on_done);
  page_url_ = url_text;
  started_at_ = loop_.now();
  outstanding_objects_ = 0;
  in_flight_requests_ = 0;
  main_thread_busy_until_ = loop_.now();
  pools_.clear();
  cancel_fetch_timers();
  fetches_.clear();
  last_success_time_ = started_at_;
  result_ = PageLoadResult{};
  arm_stall_timer();
  schedule_fetch(*url);
}

void Browser::schedule_fetch(const http::Url& url) {
  const auto [it, fresh] = fetches_.try_emplace(url.to_string());
  if (!fresh) {
    return;  // already fetched or in flight
  }
  Fetch& fetch = *it;
  fetch.second.url = url;
  ++outstanding_objects_;
  if (auto* object = trace_object(url)) {
    object->fetch_start = loop_.now();
    object->dns_start = loop_.now();
    object->kind = http::resource_kind_name(http::classify_content_type(
        http::content_type_for_path(url.path)));
    trace_event(obs::EventKind::kFetchStart, 0, fetch.first);
  }
  dns_.resolve(url.host, [this, &fetch](std::optional<net::Ipv4> ip) {
    on_resolved(fetch, ip);
  });
}

void Browser::on_resolved(Fetch& fetch, std::optional<net::Ipv4> ip) {
  if (!loading_) {
    return;  // load already aborted
  }
  const http::Url& url = fetch.second.url;
  if (auto* object = trace_object(url)) {
    object->dns_done = loop_.now();
  }
  if (!ip) {
    attempt_failed(fetch, "DNS failure for " + url.host, /*timed_out=*/false);
    return;
  }
  OriginPool& pool = pool_for(url, *ip);
  pool.waiting.push_back(&fetch);
  pump(pool);
}

Browser::OriginPool& Browser::pool_for(const http::Url& url, net::Ipv4 ip) {
  // Pools are keyed per hostname:port, like Chrome's socket pools — the
  // per-origin six-connection limit applies to names, not resolved IPs.
  const std::string key = url.host + ':' + std::to_string(url.effective_port());
  const auto it = pools_.find(key);
  if (it != pools_.end()) {
    return *it->second;
  }
  auto pool = std::make_unique<OriginPool>();
  pool->server = net::Address{ip, url.effective_port()};
  auto& ref = *pool;
  pools_.emplace(key, std::move(pool));
  result_.origins_contacted = pools_.size();
  return ref;
}

net::TcpConnection::Config Browser::next_connection_config() const {
  net::TcpConnection::Config config = config_.tcp;
  if (!config_.cc_fleet.empty()) {
    config.congestion_control =
        config_.cc_fleet[result_.connections_opened % config_.cc_fleet.size()];
  }
  return config;
}

template <typename Send>
void Browser::issue_on_main_thread(Send send) {
  // One request-send event per fetched object: it holds the fetch by
  // pointer and builds the request when it fires, so it never boxes.
  static_assert(net::EventLoop::Action::kFitsInline<Send>);
  if (config_.request_issue_cost > 0) {
    // Issuing a request costs main-thread time; a post-parse burst of
    // discoveries goes out staggered, not as one packet storm.
    const Microseconds at =
        std::max(loop_.now(), main_thread_busy_until_) + config_.request_issue_cost;
    main_thread_busy_until_ = at;
    loop_.schedule_at(at, std::move(send));
  } else {
    send();
  }
}

void Browser::pump_all() {
  for (auto& [key, pool] : pools_) {
    pump(*pool);
    if (in_flight_requests_ >= config_.max_concurrent_requests) {
      return;
    }
  }
}

void Browser::pump(OriginPool& pool) {
  if (config_.protocol == AppProtocol::kMultiplexed) {
    pump_mux(pool);
    return;
  }
  while (!pool.waiting.empty() &&
         in_flight_requests_ < config_.max_concurrent_requests) {
    // Prefer an idle live connection.
    std::shared_ptr<PoolEntry> idle;
    std::size_t live = 0;
    for (const auto& entry : pool.entries) {
      if (!entry->connection->alive()) {
        continue;
      }
      ++live;
      if (!entry->busy && idle == nullptr) {
        idle = entry;
      }
    }
    if (idle == nullptr) {
      // Open a new connection if the per-origin and global caps allow.
      std::size_t total_live = 0;
      for (const auto& [key, p] : pools_) {
        for (const auto& entry : p->entries) {
          if (entry->connection->alive()) {
            ++total_live;
          }
        }
      }
      if (live >= static_cast<std::size_t>(config_.max_connections_per_origin) ||
          total_live >= config_.max_total_connections) {
        return;  // wait for a connection to free up
      }
      auto entry = std::make_shared<PoolEntry>();
      PoolEntry* raw = entry.get();
      entry->connection = std::make_unique<net::HttpClientConnection>(
          fabric_, pool.server, [this, raw](const std::string& reason) {
            // Connection died; fail its in-flight object, if any. The
            // resilience layer decides between retry and permanent failure.
            if (raw->busy) {
              raw->busy = false;
              MAHI_ASSERT(in_flight_requests_ > 0);
              --in_flight_requests_;
              attempt_failed(*raw->current, reason, /*timed_out=*/false);
            }
            if (loading_) {
              pump_all();
            }
          },
          next_connection_config());
      pool.entries.push_back(entry);
      ++result_.connections_opened;
      idle = std::move(entry);
    }
    Fetch& fetch = *pool.waiting.front();
    pool.waiting.pop_front();
    issue(std::move(idle), fetch);
  }
}

void Browser::pump_mux(OriginPool& pool) {
  if (pool.mux != nullptr && !pool.mux->alive()) {
    if (config_.resilience.enabled()) {
      // Reconnect: defer-destroy the dead connection (we may be inside one
      // of its callbacks) and fall through to open a fresh one.
      loop_.schedule_in(0, [old = std::move(pool.mux)] { (void)old; });
      pool.mux = nullptr;
      pool.mux_inflight.clear();
    } else if (!pool.waiting.empty()) {
      // Connection died with work queued: fail those objects.
      while (!pool.waiting.empty()) {
        pool.waiting.pop_front();
        object_finished(false, "mux connection to " +
                                   pool.server.to_string() + " is dead");
      }
      return;
    }
  }
  if (pool.mux == nullptr) {
    pool.mux = std::make_unique<net::mux::MuxClientConnection>(
        fabric_, pool.server, [this, &pool](const std::string& reason) {
          // All outstanding streams on this origin just died with the
          // connection. Fail each in-flight object through the resilience
          // layer; pumping is deferred — this stack frame may sit inside
          // the dying connection's own callbacks.
          std::vector<Fetch*> dead;
          dead.reserve(pool.mux_inflight.size());
          for (const auto& [key, fetch] : pool.mux_inflight) {
            dead.push_back(fetch);
          }
          pool.mux_inflight.clear();
          for (Fetch* fetch : dead) {
            MAHI_ASSERT(in_flight_requests_ > 0);
            --in_flight_requests_;
            attempt_failed(*fetch, reason, /*timed_out=*/false);
          }
          if (loading_ && (!dead.empty() || !pool.waiting.empty())) {
            loop_.schedule_in(0, [this] {
              if (loading_) {
                pump_all();
              }
            });
          }
        },
        next_connection_config());
    ++result_.connections_opened;
  }
  while (!pool.waiting.empty() &&
         in_flight_requests_ < config_.max_concurrent_requests) {
    Fetch& fetch = *pool.waiting.front();
    pool.waiting.pop_front();
    ++in_flight_requests_;
    // The issue cost applies as in HTTP/1.1; mux just removes the
    // connection bookkeeping.
    issue_on_main_thread([this, &pool, &fetch] {
      if (!loading_ || pool.mux == nullptr) {
        return;
      }
      pool.mux_inflight.emplace(fetch.first, &fetch);
      const std::uint64_t generation = fetch.second.generation;
      arm_deadline(fetch, [this, &pool, &fetch] {
        // Undo the in-flight accounting; the erase also marks any late
        // response for this stream as stale.
        if (pool.mux_inflight.erase(fetch.first) == 0) {
          return false;
        }
        MAHI_ASSERT(in_flight_requests_ > 0);
        --in_flight_requests_;
        return true;
      });
      pool.mux->fetch(
          get_request(fetch.second.url),
          [this, &pool, &fetch, generation](http::Response response) {
            if (fetch.second.generation != generation ||
                pool.mux_inflight.erase(fetch.first) == 0) {
              return;  // superseded by a deadline expiry; already accounted
            }
            cancel_deadline(fetch.second);
            MAHI_ASSERT(in_flight_requests_ > 0);
            --in_flight_requests_;
            on_response(fetch, std::move(response));
            if (loading_) {
              pump_all();
            }
          },
          make_fetch_hooks(fetch.second.url));
    });
  }
}

void Browser::issue(std::shared_ptr<PoolEntry> entry, Fetch& fetch) {
  entry->busy = true;
  entry->current = &fetch;
  ++in_flight_requests_;
  issue_on_main_thread([this, weak = std::weak_ptr<PoolEntry>{entry}, &fetch] {
    const auto e = weak.lock();
    if (!e || !loading_) {
      return;  // load torn down before the issue event fired
    }
    PoolEntry* raw = e.get();
    arm_deadline(fetch, [this, weak, &fetch] {
      // Deadline expired mid-request: kill the connection silently (its
      // error callback must not fire — the failure is already attributed)
      // and undo the in-flight accounting.
      const auto entry = weak.lock();
      if (!entry || !entry->busy || entry->current != &fetch) {
        return false;
      }
      entry->busy = false;
      MAHI_ASSERT(in_flight_requests_ > 0);
      --in_flight_requests_;
      entry->connection->abort();
      return true;
    });
    e->connection->fetch(
        get_request(fetch.second.url),
        [this, raw, &fetch](http::Response response) {
          raw->busy = false;
          MAHI_ASSERT(in_flight_requests_ > 0);
          --in_flight_requests_;
          cancel_deadline(fetch.second);
          on_response(fetch, std::move(response));
          if (loading_) {
            pump_all();
          }
        },
        make_fetch_hooks(fetch.second.url));
  });
}

void Browser::on_response(Fetch& fetch, http::Response response) {
  if (!loading_) {
    return;
  }
  const http::Url& url = fetch.second.url;
  result_.bytes_downloaded += response.body.size() + kHeaderOverheadBytes;
  if (auto* object = trace_object(url)) {
    object->complete = loop_.now();
    object->bytes = response.body.size() + kHeaderOverheadBytes;
    object->status = response.status;
    if (const auto content_type = response.headers.get("Content-Type")) {
      object->kind =
          http::resource_kind_name(http::classify_content_type(*content_type));
    }
  }

  if (http::is_redirect(response.status)) {
    if (const auto location = response.headers.get("Location")) {
      schedule_fetch(http::resolve_reference(url, *location));
    }
    object_finished(true);
    return;
  }
  if (!http::is_success(response.status)) {
    if (auto* object = trace_object(url)) {
      object->failed = true;
      object->error = "status " + std::to_string(response.status);
    }
    object_finished(false,
                    url.to_string() + " -> " + std::to_string(response.status));
    return;
  }

  // Determine the resource kind: Content-Type header, else extension.
  const auto content_type = response.headers.get("Content-Type");
  const http::ResourceKind kind =
      content_type ? http::classify_content_type(*content_type)
                   : http::classify_content_type(
                         http::content_type_for_path(url.path));

  // Charge compute; discovery happens when the task finishes, which is how
  // real parsers serialize resource discovery behind parse/execute work.
  // HTML/CSS/JS contend for the single main thread; images, fonts and data
  // decode in parallel off-thread.
  const Microseconds cost = compute_cost(kind, response.body.size());
  const bool main_thread = kind == http::ResourceKind::kHtml ||
                           kind == http::ResourceKind::kCss ||
                           kind == http::ResourceKind::kJavaScript;
  Microseconds done;
  if (main_thread) {
    const Microseconds start = std::max(loop_.now(), main_thread_busy_until_);
    done = start + cost;
    main_thread_busy_until_ = done;
  } else {
    done = loop_.now() + cost;
  }
  auto computed = [this, &fetch, kind,
                   body = std::move(response.body)]() mutable {
    on_object_computed(fetch.second.url, kind, std::move(body));
  };
  static_assert(net::EventLoop::Action::kFitsInline<decltype(computed)>);
  loop_.schedule_at(done, std::move(computed));
}

void Browser::on_object_computed(const http::Url& url, http::ResourceKind kind,
                                 std::string body) {
  if (!loading_) {
    return;
  }
  for (const auto& sub : discover_subresources(kind, url, body)) {
    schedule_fetch(sub);
  }
  object_finished(true);
}

Microseconds Browser::compute_cost(http::ResourceKind kind, std::size_t bytes) {
  double per_byte = config_.other_us_per_byte;
  Microseconds overhead = config_.parallel_object_overhead;
  switch (kind) {
    case http::ResourceKind::kHtml:
      per_byte = config_.html_parse_us_per_byte;
      overhead = config_.per_object_overhead;
      break;
    case http::ResourceKind::kCss:
      per_byte = config_.css_parse_us_per_byte;
      overhead = config_.per_object_overhead;
      break;
    case http::ResourceKind::kJavaScript:
      per_byte = config_.js_exec_us_per_byte;
      overhead = config_.per_object_overhead;
      break;
    case http::ResourceKind::kImage:
      per_byte = config_.image_decode_us_per_byte;
      break;
    case http::ResourceKind::kJson:
      per_byte = config_.css_parse_us_per_byte;
      break;
    case http::ResourceKind::kFont:
    case http::ResourceKind::kOther:
      break;
  }
  const double jitter =
      config_.compute_jitter_sigma > 0
          ? rng_.lognormal(0.0, config_.compute_jitter_sigma)
          : 1.0;
  const double cost = (per_byte * static_cast<double>(bytes) +
                       static_cast<double>(overhead)) *
                      jitter;
  return static_cast<Microseconds>(cost);
}

void Browser::object_finished(bool ok, const std::string& error) {
  if (!loading_) {
    return;
  }
  if (ok) {
    ++result_.objects_loaded;
    last_success_time_ = loop_.now();
  } else {
    ++result_.objects_failed;
    if (result_.errors.size() < 16) {
      result_.errors.push_back(error);
    }
  }
  MAHI_ASSERT(outstanding_objects_ > 0);
  --outstanding_objects_;
  arm_stall_timer();
  maybe_finish();
}

void Browser::maybe_finish() {
  if (outstanding_objects_ > 0) {
    return;
  }
  // All objects delivered and computed: finish after the final layout.
  const Microseconds at =
      std::max(loop_.now(), main_thread_busy_until_) + config_.final_layout_cost;
  loop_.rearm(finish_event_, at, [this] {
    finish_event_ = 0;
    finish();
  });
}

void Browser::finish() {
  if (!loading_) {
    return;
  }
  loading_ = false;
  if (stall_event_ != 0) {
    loop_.cancel(stall_event_);
    stall_event_ = 0;
  }
  result_.success = result_.objects_failed == 0 && result_.objects_loaded > 0;
  result_.page_load_time = loop_.now() - started_at_;
  result_.started_at = started_at_;
  fill_degraded_plt();
  if (tracer() != nullptr) {
    tracer()->page(obs::PageRecord{config_.tcp.trace_session, page_url_,
                                   started_at_, result_.page_load_time,
                                   result_.degraded_page_load_time,
                                   result_.success});
  }
  // Tear down this load's connections (a fresh load is a fresh browser).
  pools_.clear();
  cancel_fetch_timers();
  LoadCallback done = std::move(on_done_);
  on_done_ = nullptr;
  done(std::move(result_));
}

void Browser::attempt_failed(Fetch& fetch, const std::string& reason,
                             bool timed_out) {
  if (!loading_) {
    return;
  }
  const std::string& key = fetch.first;
  FetchState& state = fetch.second;
  const http::Url& url = state.url;
  cancel_deadline(state);
  ++state.generation;  // a late response for the old attempt is now stale
  ++state.attempts;
  if (timed_out) {
    ++result_.timeouts;
    trace_event(obs::EventKind::kFetchTimeout,
                static_cast<std::uint64_t>(state.attempts), key);
  }
  const auto& policy = config_.resilience;
  if (policy.enabled() && state.attempts <= policy.max_retries) {
    ++result_.retries;
    if (auto* object = trace_object(url)) {
      // Retry: the next attempt re-stamps the phase columns from scratch
      // (fetch_start keeps the first attempt — the waterfall bar spans the
      // whole wait, attempt count marks the churn inside it).
      ++object->attempts;
      object->dns_start = -1;
      object->dns_done = -1;
      object->request_sent = -1;
      object->first_byte = -1;
      trace_event(obs::EventKind::kFetchRetry,
                  static_cast<std::uint64_t>(state.attempts), key);
    }
    // Capped exponential backoff with seeded jitter: base * 2^(n-1),
    // clamped to the cap, scaled by uniform [1-j, 1+j] from the browser's
    // deterministic RNG.
    const int exponent = std::min(state.attempts - 1, 20);
    Microseconds backoff =
        std::min<Microseconds>(policy.backoff_base << exponent, policy.backoff_max);
    if (policy.backoff_jitter > 0) {
      const double scale =
          1.0 + policy.backoff_jitter * (rng_.uniform() * 2.0 - 1.0);
      backoff = std::max<Microseconds>(
          1, static_cast<Microseconds>(static_cast<double>(backoff) * scale));
    }
    state.retry_event = loop_.schedule_in(backoff, [this, &fetch] {
      fetch.second.retry_event = 0;
      if (!loading_) {
        return;
      }
      const http::Url& url = fetch.second.url;
      if (auto* object = trace_object(url)) {
        object->dns_start = loop_.now();
      }
      // Re-resolve and re-enqueue; the DNS cache makes repeat resolution
      // synchronous, while a DNS-failure retry genuinely asks again.
      dns_.resolve(url.host, [this, &fetch](std::optional<net::Ipv4> ip) {
        on_resolved(fetch, ip);
      });
    });
    return;  // the object stays outstanding
  }
  if (auto* object = trace_object(url)) {
    object->failed = true;
    object->error = reason;
  }
  object_finished(false, reason);
}

template <typename OnExpire>
void Browser::arm_deadline(Fetch& fetch, OnExpire on_expire) {
  const auto& policy = config_.resilience;
  if (!policy.enabled() || policy.request_deadline <= 0) {
    return;
  }
  FetchState& state = fetch.second;
  if (state.deadline_event != 0) {
    loop_.cancel(state.deadline_event);
  }
  auto expire = [this, &fetch, on_expire = std::move(on_expire)] {
    fetch.second.deadline_event = 0;
    if (!loading_ || !on_expire()) {
      return;
    }
    attempt_failed(fetch, "request deadline exceeded for " + fetch.first,
                   /*timed_out=*/true);
    if (loading_) {
      pump_all();
    }
  };
  static_assert(net::EventLoop::Action::kFitsInline<decltype(expire)>);
  state.deadline_event =
      loop_.schedule_in(policy.request_deadline, std::move(expire));
}

void Browser::cancel_deadline(FetchState& state) {
  if (state.deadline_event != 0) {
    loop_.cancel(state.deadline_event);
    state.deadline_event = 0;
  }
}

void Browser::cancel_fetch_timers() {
  for (auto& [key, state] : fetches_) {
    if (state.deadline_event != 0) {
      loop_.cancel(state.deadline_event);
      state.deadline_event = 0;
    }
    if (state.retry_event != 0) {
      loop_.cancel(state.retry_event);
      state.retry_event = 0;
    }
  }
}

void Browser::fill_degraded_plt() {
  result_.degraded = result_.objects_failed > 0;
  if (!result_.degraded || result_.objects_loaded == 0) {
    // Clean load — or nothing ever rendered, in which case there is no
    // "partially useful page" moment to report.
    result_.degraded_page_load_time = result_.page_load_time;
    return;
  }
  // The page "looked done" when its last successful object landed plus the
  // final layout; everything after that was failure detection.
  const Microseconds at =
      last_success_time_ + config_.final_layout_cost - started_at_;
  result_.degraded_page_load_time =
      std::clamp<Microseconds>(at, 0, result_.page_load_time);
}

void Browser::arm_stall_timer() {
  loop_.rearm(stall_event_, loop_.now() + config_.stall_timeout, [this] {
    stall_event_ = 0;
    if (!loading_) {
      return;
    }
    MAHI_WARN("browser") << "page load stalled with " << outstanding_objects_
                         << " objects outstanding";
    result_.errors.push_back("stall timeout");
    result_.objects_failed += outstanding_objects_;
    outstanding_objects_ = 0;
    loading_ = false;
    result_.success = false;
    result_.page_load_time = loop_.now() - started_at_;
    result_.started_at = started_at_;
    fill_degraded_plt();
    if (tracer() != nullptr) {
      tracer()->page(obs::PageRecord{config_.tcp.trace_session, page_url_,
                                     started_at_, result_.page_load_time,
                                     result_.degraded_page_load_time,
                                     result_.success});
    }
    pools_.clear();
    cancel_fetch_timers();
    LoadCallback done = std::move(on_done_);
    on_done_ = nullptr;
    done(std::move(result_));
  });
}

}  // namespace mahimahi::web
