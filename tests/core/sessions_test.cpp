#include "core/sessions.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "corpus/site_generator.hpp"

namespace mahimahi::core {
namespace {

using namespace mahimahi::literals;

corpus::SiteSpec tiny_spec() {
  corpus::SiteSpec spec;
  spec.name = "sess";
  spec.seed = 17;
  spec.server_count = 5;
  spec.object_count = 25;
  return spec;
}

SessionConfig quick_config(std::uint64_t seed = 9) {
  SessionConfig config;
  config.seed = seed;
  config.browser.per_object_overhead = 500;
  config.browser.final_layout_cost = 1'000;
  return config;
}

TEST(ScaledBrowser, ScalesComputeFieldsOnly) {
  web::BrowserConfig base;
  HostProfile host;
  host.compute_scale = 2.0;
  const auto scaled = scaled_browser(base, host);
  EXPECT_DOUBLE_EQ(scaled.js_exec_us_per_byte, base.js_exec_us_per_byte * 2.0);
  EXPECT_DOUBLE_EQ(scaled.html_parse_us_per_byte,
                   base.html_parse_us_per_byte * 2.0);
  EXPECT_EQ(scaled.per_object_overhead, base.per_object_overhead * 2);
  EXPECT_EQ(scaled.final_layout_cost, base.final_layout_cost * 2);
  // Non-compute fields untouched.
  EXPECT_EQ(scaled.max_connections_per_origin, base.max_connections_per_origin);
  EXPECT_EQ(scaled.max_concurrent_requests, base.max_concurrent_requests);
}

TEST(ReplaySession, LossShellStillCompletesLoads) {
  const auto site = corpus::generate_site(tiny_spec());
  RecordSession recorder{site, corpus::LiveWebConfig{}, quick_config()};
  const auto store = recorder.record();

  auto config = quick_config();
  config.shells = {DelayShellSpec{10_ms}, LossShellSpec{0.05, 0.05}};
  ReplaySession session{store, config};
  const auto result = session.load_once(site.primary_url(), 0);
  EXPECT_TRUE(result.success);  // TCP recovers every loss
  EXPECT_EQ(result.objects_loaded, site.objects.size());
}

TEST(ReplaySession, MachineProfilesAgreeClosely) {
  const auto site = corpus::generate_site(tiny_spec());
  RecordSession recorder{site, corpus::LiveWebConfig{}, quick_config()};
  const auto store = recorder.record();

  double means[2];
  int m = 0;
  for (const auto& host : {HostProfile::machine1(), HostProfile::machine2()}) {
    auto config = quick_config();
    config.host = host;
    ReplaySession session{store, config};
    means[m++] = session.measure(site.primary_url(), 10).mean();
  }
  // Table 1's property: different machines, near-identical means.
  EXPECT_NEAR(means[0], means[1], means[0] * 0.01);
  EXPECT_NE(means[0], means[1]);  // but not bit-identical (different salt)
}

TEST(ReplaySession, SingleServerSlowerOnFatLowLatencyLink) {
  const auto site = corpus::generate_site(tiny_spec());
  RecordSession recorder{site, corpus::LiveWebConfig{}, quick_config()};
  const auto store = recorder.record();

  auto config = quick_config();
  config.shells = {DelayShellSpec{15_ms},
                   LinkShellSpec::constant_rate_mbps(25, 25)};
  ReplaySession multi{store, config};
  ReplaySession::Options so;
  so.single_server = true;
  ReplaySession single{store, config, so};
  const auto m = multi.load_once(site.primary_url(), 0).page_load_time;
  const auto s = single.load_once(site.primary_url(), 0).page_load_time;
  EXPECT_GT(s, m);
}

TEST(RecordSession, ShellsApplyToRecordingPath) {
  // Recording through a slow link is slower than recording bare, and both
  // capture the same exchanges.
  const auto site = corpus::generate_site(tiny_spec());

  web::PageLoadResult bare_result;
  RecordSession bare{site, corpus::LiveWebConfig{}, quick_config()};
  const auto bare_store = bare.record(&bare_result);

  auto slow_config = quick_config();
  slow_config.shells = {LinkShellSpec::constant_rate_mbps(2, 2)};
  web::PageLoadResult slow_result;
  RecordSession slow{site, corpus::LiveWebConfig{}, slow_config};
  const auto slow_store = slow.record(&slow_result);

  EXPECT_EQ(bare_store.size(), slow_store.size());
  EXPECT_GT(slow_result.page_load_time, bare_result.page_load_time);
}

TEST(LiveWebSession, RttVariesAcrossLoads) {
  const auto site = corpus::generate_site(tiny_spec());
  const LiveWebSession live{site, corpus::LiveWebConfig{}, quick_config()};
  const auto rtt0 = live.load_outcome(0).primary_rtt;
  const auto rtt1 = live.load_outcome(1).primary_rtt;
  EXPECT_GT(rtt0, 0);
  EXPECT_NE(rtt0, rtt1);  // weather redraw
}

TEST(ReplaySession, BrowserConnectionCapBindsPageParallelism) {
  const auto site = corpus::generate_site(tiny_spec());
  RecordSession recorder{site, corpus::LiveWebConfig{}, quick_config()};
  const auto store = recorder.record();

  auto throttled = quick_config();
  throttled.browser.max_concurrent_requests = 2;
  ReplaySession narrow{store, throttled};
  const auto result = narrow.load_once(site.primary_url(), 0);
  EXPECT_TRUE(result.success);
  // At most `cap` connections can be *created* per origin pool (a new
  // socket is only opened for an issued request), so the total is bounded
  // by origins x cap even though sockets persist across requests.
  EXPECT_LE(result.connections_opened, site.hostnames.size() * 2);

  ReplaySession wide{store, quick_config()};
  const auto wide_result = wide.load_once(site.primary_url(), 0);
  EXPECT_GT(wide_result.connections_opened, result.connections_opened);
}

TEST(ReplaySession, RejectsMismatchedProtocolPair) {
  // Browser and origin farm must speak one protocol; a mismatch would
  // otherwise fail every object with "response parse failure".
  const auto site = corpus::generate_site(tiny_spec());
  RecordSession recorder{site, corpus::LiveWebConfig{}, quick_config()};
  const auto store = recorder.record();

  auto mux_browser = quick_config();
  mux_browser.browser.protocol = web::AppProtocol::kMultiplexed;
  const ReplaySession http_origins{store, mux_browser};
  try {
    (void)http_origins.load_once(site.primary_url(), 0);
    FAIL() << "mismatched protocols accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("protocol mux"), std::string::npos) << what;
    EXPECT_NE(what.find("multiplexed false"), std::string::npos) << what;
  }

  replay::OriginServerSet::Options mux_origins;
  mux_origins.multiplexed = true;
  const ReplaySession http_browser{store, quick_config(), mux_origins};
  EXPECT_THROW((void)http_browser.load_once(site.primary_url(), 0),
               std::invalid_argument);

  // A matched mux pair loads normally.
  const ReplaySession matched{store, mux_browser, mux_origins};
  EXPECT_TRUE(matched.load_once(site.primary_url(), 0).success);
}

}  // namespace
}  // namespace mahimahi::core
