// The parallel measurement engine's contract: index-ordered merge, bit-
// identical output at any thread count, and failure containment — an
// exception in one task never disturbs its siblings.

#include "core/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/sessions.hpp"
#include "corpus/site_generator.hpp"

namespace mahimahi::core {
namespace {

corpus::SiteSpec tiny_spec() {
  corpus::SiteSpec spec;
  spec.name = "runner";
  spec.seed = 23;
  spec.server_count = 4;
  spec.object_count = 16;
  return spec;
}

SessionConfig quick_config(std::uint64_t seed = 11) {
  SessionConfig config;
  config.seed = seed;
  config.browser.per_object_overhead = 500;
  config.browser.final_layout_cost = 1'000;
  return config;
}

TEST(ParallelRunner, MapMergesResultsInIndexOrder) {
  ParallelRunner runner{4};
  const auto results = runner.map(64, [](int i) { return i * 3; });
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 3);
  }
}

TEST(ParallelRunner, EmptyAndNegativeCountsAreNoOps) {
  ParallelRunner runner{2};
  EXPECT_TRUE(runner.map(0, [](int i) { return i; }).empty());
  EXPECT_TRUE(runner.map(-3, [](int i) { return i; }).empty());
}

TEST(ParallelRunner, SameSeedSameUrlIsByteIdenticalAcrossThreadCounts) {
  // The PR's headline property (and Table 1's): same seed + same URL must
  // give byte-identical Samples at 1, 2, and 8 threads.
  const auto site = corpus::generate_site(tiny_spec());
  RecordSession recorder{site, corpus::LiveWebConfig{}, quick_config()};
  const auto store = recorder.record();

  auto config = quick_config();
  config.shells = {DelayShellSpec{10'000},
                   LinkShellSpec::constant_rate_mbps(6, 6)};
  ReplaySession session{store, config};

  ParallelRunner one{1};
  const auto baseline = session.measure(site.primary_url(), 12, one);
  ASSERT_EQ(baseline.size(), 12u);

  for (const int threads : {2, 8}) {
    ParallelRunner runner{threads};
    const auto samples = session.measure(site.primary_url(), 12, runner);
    EXPECT_EQ(baseline.values(), samples.values())
        << "thread count " << threads << " diverged from sequential";
  }
}

TEST(ParallelRunner, LiveWebLoadsAreByteIdenticalAcrossThreadCounts) {
  const auto site = corpus::generate_site(tiny_spec());
  const LiveWebSession live{site, corpus::LiveWebConfig{}, quick_config()};
  // (PLT, primary RTT) per load, in load order.
  const auto measure = [&live](ParallelRunner& runner) {
    const auto outcomes =
        runner.map(10, [&live](int i) { return live.load_outcome(i); });
    std::vector<std::pair<Microseconds, Microseconds>> samples;
    for (const LiveWebSession::LoadOutcome& outcome : outcomes) {
      samples.emplace_back(outcome.result.page_load_time,
                           outcome.primary_rtt);
    }
    return samples;
  };

  ParallelRunner one{1};
  ParallelRunner four{4};
  EXPECT_EQ(measure(one), measure(four));
}

TEST(ParallelRunner, ExceptionInOneTaskDoesNotPoisonSiblings) {
  ParallelRunner runner{4};
  std::atomic<int> completed{0};
  try {
    runner.map(32, [&completed](int i) {
      if (i == 7) {
        throw std::runtime_error{"task 7 failed"};
      }
      completed.fetch_add(1, std::memory_order_relaxed);
      return i;
    });
    FAIL() << "expected the task's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7 failed");
  }
  // Every sibling ran to completion despite the failure.
  EXPECT_EQ(completed.load(), 31);
}

TEST(ParallelRunner, LowestIndexExceptionWinsDeterministically) {
  ParallelRunner runner{8};
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      runner.map(64, [](int i) {
        if (i % 9 == 5) {  // several failing indices: 5, 14, 23, ...
          throw std::runtime_error{"task " + std::to_string(i)};
        }
        return i;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5");  // always the lowest failing index
    }
  }
}

TEST(ParallelRunner, RunnerIsReusableAcrossBatches) {
  ParallelRunner runner{3};
  for (int batch = 0; batch < 10; ++batch) {
    const auto results =
        runner.map(20, [batch](int i) { return batch * 100 + i; });
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(i)], batch * 100 + i);
    }
  }
}

TEST(ParallelRunner, DefaultThreadCountHonoursEnvOverride) {
  // MAHI_THREADS wins; absent or invalid values fall back to hardware.
  ASSERT_EQ(setenv("MAHI_THREADS", "3", 1), 0);
  EXPECT_EQ(ParallelRunner::default_thread_count(), 3);
  ASSERT_EQ(setenv("MAHI_THREADS", "0", 1), 0);
  EXPECT_GE(ParallelRunner::default_thread_count(), 1);
  ASSERT_EQ(unsetenv("MAHI_THREADS"), 0);
  EXPECT_GE(ParallelRunner::default_thread_count(), 1);
}

}  // namespace
}  // namespace mahimahi::core
