// SessionMux: many replay sessions on one event loop in one shared world.
// The tests pin the mux's contract: session k's seed is (fleet_seed, k)
// and its arrival stagger * k, every session runs on its own clock, and
// sessions DO contend for the world, deterministically.

#include "fleet/session_mux.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "corpus/site_generator.hpp"
#include "obs/export.hpp"

namespace mahimahi::fleet {
namespace {

using namespace mahimahi::literals;

struct RecordedPage {
  corpus::GeneratedSite site;
  record::RecordStore store;
};

const RecordedPage& page() {
  static const RecordedPage entry = [] {
    corpus::SiteSpec spec;
    spec.name = "mux";
    spec.seed = 17;
    spec.server_count = 3;
    spec.object_count = 8;
    spec.size_scale = 0.25;
    RecordedPage built{corpus::generate_site(spec), record::RecordStore{}};
    core::SessionConfig config;
    config.seed = 9;
    core::RecordSession recorder{built.site, corpus::LiveWebConfig{}, config};
    built.store = recorder.record();
    return built;
  }();
  return entry;
}

MuxConfig quick_config() {
  MuxConfig config;
  config.fleet_seed = 5;
  config.stagger = 1'000;
  config.session.shells = {core::DelayShellSpec{5_ms}};
  return config;
}

std::vector<SessionOutcome> run_mux(const std::vector<int>& indices,
                                    MuxConfig config) {
  SessionMux mux{page().store, page().site.primary_url(), std::move(config)};
  for (const int index : indices) {
    mux.add_session(index);
  }
  return mux.run();
}

TEST(SessionMux, RunsEverySessionToCompletion) {
  const auto outcomes = run_mux({0, 1, 2, 3, 4, 5, 6, 7}, quick_config());
  ASSERT_EQ(outcomes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const SessionOutcome& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_EQ(o.session_index, i);
    EXPECT_NE(o.success, 0);
    EXPECT_GT(o.plt_ms, 0.0);
    // Arrival honors the (stagger, global index) contract...
    EXPECT_DOUBLE_EQ(o.start_ms, 1.0 * i);
    // ...and the load ran entirely on its own session clock.
    EXPECT_NEAR(o.finish_ms - o.start_ms, o.plt_ms, 1e-6);
    EXPECT_GT(o.objects_loaded, 0u);
    EXPECT_GT(o.bytes_downloaded, 0u);
  }
}

TEST(SessionMux, EnrollmentOrderIsIrrelevant) {
  // Arrivals are stagger * index (stagger > 0 here), so the admission
  // order, and with it every byte, is fixed by the indices alone.
  const auto forward = run_mux({0, 1, 2, 3, 4, 5}, quick_config());
  const auto backward = run_mux({5, 4, 3, 2, 1, 0}, quick_config());
  EXPECT_EQ(serialize_outcomes(forward), serialize_outcomes(backward));
}

TEST(SessionMux, DistinctSessionsGetDistinctSeeds) {
  // Different sessions must not replay identical randomness: with
  // compute jitter on, their PLTs differ.
  MuxConfig config = quick_config();
  const auto outcomes = run_mux({0, 1, 2, 3}, config);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_NE(outcomes[0].plt_ms, outcomes[i].plt_ms)
        << "sessions 0 and " << i << " look seed-aliased";
  }
}

TEST(SessionMux, RejectsDuplicateEnrollmentAndDoubleRun) {
  SessionMux mux{page().store, page().site.primary_url(), quick_config()};
  mux.add_session(3);
  EXPECT_ANY_THROW(mux.add_session(3));
  EXPECT_EQ(mux.run().size(), 1u);
  EXPECT_ANY_THROW(mux.run());
  EXPECT_ANY_THROW(mux.add_session(4));
}

TEST(SessionMux, RejectsAWorldPerSession) {
  // A session with a namespace of its own is a solo load; the mux only
  // runs the shared world.
  MuxConfig config = quick_config();
  config.shared_world = false;
  EXPECT_THROW((SessionMux{page().store, page().site.primary_url(), config}),
               std::invalid_argument);
}

TEST(SessionMux, SharedWorldSessionsContend) {
  MuxConfig config = quick_config();
  config.stagger = 2'000;
  const auto solo = run_mux({0}, config);
  const auto crowd = run_mux({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, config);
  ASSERT_EQ(crowd.size(), 10u);
  util::Samples crowd_plts;
  for (const SessionOutcome& o : crowd) {
    EXPECT_NE(o.success, 0);
    crowd_plts.add(o.plt_ms);
  }
  // Ten users fighting over one origin-server farm cannot match a lone
  // user's PLT — if they do, the "shared" world isn't shared.
  EXPECT_GT(crowd_plts.median(), solo[0].plt_ms);
  // And the contention itself is deterministic.
  const auto again = run_mux({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, config);
  EXPECT_EQ(serialize_outcomes(crowd), serialize_outcomes(again));
}

TEST(SessionMux, SharedWorldFaultsBelongToTheWorldAndAreDeterministic) {
  // Every injector on the one shared namespace: the link flaps and
  // corrupts, origins crash, DNS fails. The faults are the world's, so
  // their trace events carry the shared-infrastructure session -1.
  MuxConfig config = quick_config();
  config.stagger = 2'000;
  config.session.fault = fault::parse_fault_spec(
      "flap:period=400ms,down=60ms,offset=20ms corrupt:rate=0.02 "
      "crash:p=0.2 dns:fail=0.3");
  const auto run_traced = [&config] {
    obs::Tracer tracer;
    MuxConfig traced = config;
    traced.session.tracer = &tracer;
    auto outcomes = run_mux({0, 1, 2, 3}, traced);
    return std::make_pair(std::move(outcomes), tracer.take());
  };
  const auto [outcomes, trace] = run_traced();

  std::set<std::string> injectors;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind == obs::EventKind::kFaultInjected) {
      EXPECT_EQ(e.session, -1) << e.label;
      injectors.insert(e.label.substr(0, e.label.find('/')));
    }
  }
  const std::set<std::string> every_injector{"corrupt", "dns", "flap",
                                             "origin"};
  EXPECT_EQ(injectors, every_injector);

  // Every session finishes: cleanly, or with its failed objects counted.
  ASSERT_EQ(outcomes.size(), 4u);
  for (const SessionOutcome& o : outcomes) {
    EXPECT_TRUE(o.success != 0 || o.objects_failed > 0) << o.session_index;
    EXPECT_NEAR(o.finish_ms - o.start_ms, o.plt_ms, 1e-6);
  }

  const auto [again, again_trace] = run_traced();
  EXPECT_EQ(serialize_outcomes(outcomes), serialize_outcomes(again));
  const obs::TraceMeta meta{"mux", "shared-faults", 0, 5};
  EXPECT_EQ(obs::to_csv(meta, {obs::LoadTrace{0, trace}}),
            obs::to_csv(meta, {obs::LoadTrace{0, again_trace}}));
}

TEST(SessionMux, PeakLiveSessionsTracksOverlap) {
  MuxConfig config = quick_config();
  config.stagger = 0;  // all admitted at t = 0: everyone overlaps
  SessionMux mux{page().store, page().site.primary_url(), config};
  for (int i = 0; i < 5; ++i) {
    mux.add_session(i);
  }
  mux.run();
  EXPECT_EQ(mux.peak_live_sessions(), 5u);
}

}  // namespace
}  // namespace mahimahi::fleet
