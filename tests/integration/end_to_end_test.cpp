// Full-pipeline integration tests: generate a site, host it on the
// simulated live web, record it through RecordShell's proxy, replay it
// under shells, and measure page loads — the complete mahimahi workflow.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/sessions.hpp"
#include "corpus/alexa.hpp"

namespace mahimahi::core {
namespace {

using namespace mahimahi::literals;

corpus::SiteSpec test_site_spec() {
  corpus::SiteSpec spec;
  spec.name = "e2e";
  spec.seed = 1234;
  spec.server_count = 6;
  spec.object_count = 30;
  return spec;
}

SessionConfig fast_config(std::uint64_t seed = 1) {
  SessionConfig config;
  config.seed = seed;
  // Small compute constants keep integration tests quick.
  config.browser.per_object_overhead = 500;
  config.browser.final_layout_cost = 2'000;
  return config;
}

record::RecordStore record_test_site(const corpus::GeneratedSite& site) {
  RecordSession session{site, corpus::LiveWebConfig{}, fast_config()};
  return session.record();
}

TEST(EndToEnd, RecordingCapturesWholeSite) {
  const auto site = corpus::generate_site(test_site_spec());
  web::PageLoadResult live_result;
  RecordSession session{site, corpus::LiveWebConfig{}, fast_config()};
  const auto store = session.record(&live_result);

  EXPECT_TRUE(live_result.success);
  EXPECT_EQ(live_result.objects_loaded, site.objects.size());
  // One recorded exchange per object, one origin per hostname.
  EXPECT_EQ(store.size(), site.objects.size());
  EXPECT_EQ(store.distinct_servers().size(), site.hostnames.size());
}

TEST(EndToEnd, ReplayServesEveryRecordedObject) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  ReplaySession replay{store, fast_config()};
  const auto result = replay.load_once(site.primary_url());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.objects_loaded, site.objects.size());
  EXPECT_EQ(result.objects_failed, 0u);
  EXPECT_EQ(result.origins_contacted, site.hostnames.size());
}

TEST(EndToEnd, ReplayIsDeterministicGivenSeed) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  ReplaySession a{store, fast_config(77)};
  ReplaySession b{store, fast_config(77)};
  EXPECT_EQ(a.load_once(site.primary_url(), 3).page_load_time,
            b.load_once(site.primary_url(), 3).page_load_time);
  // Different load index => different jitter draws.
  EXPECT_NE(a.load_once(site.primary_url(), 0).page_load_time,
            a.load_once(site.primary_url(), 1).page_load_time);
}

TEST(EndToEnd, StoreSurvivesDiskRoundTrip) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);
  const auto dir = std::filesystem::temp_directory_path() / "mahi_e2e_site";
  std::filesystem::remove_all(dir);
  store.save(dir);
  const auto loaded = record::RecordStore::load(dir);
  std::filesystem::remove_all(dir);

  ReplaySession replay{loaded, fast_config()};
  const auto result = replay.load_once(site.primary_url());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.objects_loaded, site.objects.size());
}

TEST(EndToEnd, DelayShellIncreasesPlt) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  ReplaySession bare{store, fast_config()};
  auto delayed_config = fast_config();
  delayed_config.shells = {DelayShellSpec{50_ms}};
  ReplaySession delayed{store, delayed_config};

  const auto bare_plt = bare.load_once(site.primary_url()).page_load_time;
  const auto delayed_plt = delayed.load_once(site.primary_url()).page_load_time;
  // 50 ms each way on every round trip: substantially slower.
  EXPECT_GT(delayed_plt, bare_plt + 100_ms);
}

TEST(EndToEnd, LinkShellThrottlesPlt) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  auto fast = fast_config();
  fast.shells = {DelayShellSpec{10_ms},
                 LinkShellSpec::constant_rate_mbps(50, 50)};
  auto slow = fast_config();
  slow.shells = {DelayShellSpec{10_ms},
                 LinkShellSpec::constant_rate_mbps(50, 1)};

  ReplaySession fast_session{store, fast};
  ReplaySession slow_session{store, slow};
  const auto fast_plt =
      fast_session.load_once(site.primary_url()).page_load_time;
  const auto slow_plt =
      slow_session.load_once(site.primary_url()).page_load_time;
  EXPECT_GT(slow_plt, fast_plt * 2);
}

TEST(EndToEnd, SingleServerModeStillLoadsEverything) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  ReplaySession::Options options;
  options.single_server = true;
  ReplaySession session{store, fast_config(), options};
  const auto result = session.load_once(site.primary_url());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.objects_loaded, site.objects.size());
  // Browser pools are per hostname, so the page still *names* six origins;
  // the collapse happens underneath (every name resolves to one server).
  EXPECT_EQ(result.origins_contacted, site.hostnames.size());
}

TEST(EndToEnd, MultiOriginBeatsSingleServerUnderBandwidth) {
  // The paper's core claim (Table 2): with ample bandwidth and moderate
  // RTT, collapsing a multi-origin site onto one server inflates PLT.
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  auto config = fast_config();
  config.shells = {DelayShellSpec{30_ms},
                   LinkShellSpec::constant_rate_mbps(14, 14)};
  ReplaySession multi{store, config};
  ReplaySession::Options single_options;
  single_options.single_server = true;
  ReplaySession single{store, config, single_options};

  const auto multi_plt = multi.load_once(site.primary_url()).page_load_time;
  const auto single_plt = single.load_once(site.primary_url()).page_load_time;
  EXPECT_GT(single_plt, multi_plt);
}

TEST(EndToEnd, LiveWebSessionMeasuresActualWeb) {
  const auto site = corpus::generate_site(test_site_spec());
  const LiveWebSession live{site, corpus::LiveWebConfig{}, fast_config()};
  const auto first = live.load_outcome(0);
  EXPECT_TRUE(first.result.success);
  EXPECT_EQ(first.result.objects_loaded, site.objects.size());
  EXPECT_GT(first.primary_rtt, 0);
  // Weather varies across loads.
  const auto second = live.load_outcome(1);
  EXPECT_NE(first.result.page_load_time, second.result.page_load_time);
}

TEST(EndToEnd, ConcurrentSessionsAreIsolated) {
  // Two sessions with different shells measured interleaved must produce
  // exactly what they produce run back-to-back (isolation property).
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  auto slow_config = fast_config();
  slow_config.shells = {DelayShellSpec{80_ms}};

  ReplaySession a1{store, fast_config()};
  ReplaySession b1{store, slow_config};
  const auto a_inter = a1.load_once(site.primary_url(), 0);
  const auto b_inter = b1.load_once(site.primary_url(), 0);

  ReplaySession a2{store, fast_config()};
  const auto a_solo = a2.load_once(site.primary_url(), 0);
  ReplaySession b2{store, slow_config};
  const auto b_solo = b2.load_once(site.primary_url(), 0);

  EXPECT_EQ(a_inter.page_load_time, a_solo.page_load_time);
  EXPECT_EQ(b_inter.page_load_time, b_solo.page_load_time);
}

TEST(EndToEnd, MultiplexedReplayLoadsWholeSite) {
  // The SPDY-like protocol end to end: mux browser against mux replay
  // servers, one connection per origin, same recorded bytes.
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  auto config = fast_config();
  config.browser.protocol = web::AppProtocol::kMultiplexed;
  config.shells = {DelayShellSpec{20_ms}};
  ReplaySession::Options options;
  options.multiplexed = true;
  ReplaySession session{store, config, options};
  const auto result = session.load_once(site.primary_url());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.objects_loaded, site.objects.size());
  // Exactly one TCP connection per contacted origin.
  EXPECT_EQ(result.connections_opened, result.origins_contacted);
}

TEST(EndToEnd, MultiplexedBeatsHttp11AtHighRtt) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);

  auto http_config = fast_config();
  http_config.shells = {DelayShellSpec{150_ms}};
  ReplaySession http_session{store, http_config};

  auto mux_config = fast_config();
  mux_config.browser.protocol = web::AppProtocol::kMultiplexed;
  mux_config.shells = {DelayShellSpec{150_ms}};
  ReplaySession::Options mux_options;
  mux_options.multiplexed = true;
  ReplaySession mux_session{store, mux_config, mux_options};

  const auto http_plt =
      http_session.load_once(site.primary_url()).page_load_time;
  const auto mux_plt = mux_session.load_once(site.primary_url()).page_load_time;
  EXPECT_LT(mux_plt, http_plt);
}

TEST(EndToEnd, MeasureCollectsRequestedSampleCount) {
  const auto site = corpus::generate_site(test_site_spec());
  const auto store = record_test_site(site);
  ReplaySession session{store, fast_config()};
  const auto samples = session.measure(site.primary_url(), 5);
  EXPECT_EQ(samples.size(), 5u);
  EXPECT_GT(samples.min(), 0.0);
}

}  // namespace
}  // namespace mahimahi::core
