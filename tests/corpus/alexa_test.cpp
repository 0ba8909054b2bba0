#include "corpus/alexa.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "experiment/runner.hpp"
#include "util/statistics.hpp"

namespace mahimahi::corpus {
namespace {

TEST(Alexa, ServerCountDistributionMatchesPaper) {
  util::Rng rng{2014};
  const auto counts = alexa_server_counts(rng, 500);
  ASSERT_EQ(counts.size(), 500u);

  util::Samples samples;
  int singles = 0;
  for (const int c : counts) {
    samples.add(c);
    if (c == 1) {
      ++singles;
    }
  }
  // Paper (§4): median 20, p95 51, exactly 9 single-server pages.
  EXPECT_EQ(singles, 9);
  EXPECT_NEAR(samples.median(), 20.0, 3.0);
  EXPECT_NEAR(samples.percentile(95), 51.0, 8.0);
  EXPECT_GE(samples.min(), 1.0);
}

TEST(Alexa, MultiOriginShareIsAbout98Percent) {
  util::Rng rng{2014};
  const auto counts = alexa_server_counts(rng, 500);
  const auto multi =
      std::count_if(counts.begin(), counts.end(), [](int c) { return c > 1; });
  EXPECT_NEAR(static_cast<double>(multi) / 500.0, 0.982, 0.01);
}

TEST(Alexa, DeterministicGivenSeed) {
  util::Rng a{7};
  util::Rng b{7};
  EXPECT_EQ(alexa_server_counts(a, 100), alexa_server_counts(b, 100));
}

TEST(Alexa, SmallCorpusScalesSingles) {
  util::Rng rng{3};
  const auto counts = alexa_server_counts(rng, 100);
  const auto singles = std::count(counts.begin(), counts.end(), 1);
  EXPECT_EQ(singles, 1);  // 9/500 scaled down
}

TEST(Alexa, SiteSpecCorrelatesObjectsWithServers) {
  util::Rng rng{11};
  const auto small = alexa_site_spec(0, 2, rng);
  const auto large = alexa_site_spec(1, 60, rng);
  EXPECT_LT(small.object_count, large.object_count);
  EXPECT_GE(small.object_count, 8);
  EXPECT_LE(large.object_count, 420);
  EXPECT_EQ(small.server_count, 2);
  EXPECT_EQ(large.server_count, 60);
  EXPECT_NE(small.name, large.name);
}

TEST(Alexa, SingleServerSpecsAreSmallPages) {
  util::Rng rng{13};
  const auto spec = alexa_site_spec(5, 1, rng);
  EXPECT_LE(spec.object_count, 18);
}

TEST(Alexa, RecordingPreservesEachSitesServerTopology) {
  // Section 4 counts physical servers per site; the corpus is only a
  // faithful stand-in if recording keeps them. Record the first 30 sites
  // through the experiment engine's corpus builder and count the distinct
  // (IP, port) pairs each recording captured.
  experiment::SiteAxis corpus;
  corpus.label = "alexa:500";
  corpus.corpus_size = 500;
  for (int k = 0; k < 30; ++k) {
    const experiment::RecordedSite site =
        experiment::record_site(/*experiment_seed=*/0xA1E7A, corpus, k);
    EXPECT_EQ(site.store.distinct_servers().size(),
              static_cast<std::size_t>(site.site.spec.server_count))
        << "site " << k;
  }
}

}  // namespace
}  // namespace mahimahi::corpus
