#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace mahimahi::util {
namespace {

TEST(Samples, PercentileInterpolates) {
  Samples s{{10.0, 20.0, 30.0, 40.0}};
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Samples, PercentileSingleSample) {
  Samples s{{42.0}};
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(Samples, PercentileOutOfRangeThrows) {
  Samples s{{1.0}};
  EXPECT_THROW((void)s.percentile(-1.0), InternalError);
  EXPECT_THROW((void)s.percentile(100.5), InternalError);
}

TEST(Samples, AddInvalidatesSortCache) {
  Samples s{{3.0, 1.0}};
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(Samples, MeanAndSampleStdDev) {
  Samples s{{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}};
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // n-1 denominator
  EXPECT_DOUBLE_EQ(Samples{{3.5}}.stddev(), 0.0);
}

TEST(Samples, AppendPreservesBothInsertionOrders) {
  Samples front{{5.0, 1.0, 3.0}};
  const Samples back{{2.0, 9.0}};
  front.append(back);
  const std::vector<double> expected{5.0, 1.0, 3.0, 2.0, 9.0};
  EXPECT_EQ(front.values(), expected);
}

TEST(Samples, AppendInvalidatesSortCache) {
  Samples samples{{4.0, 2.0}};
  EXPECT_DOUBLE_EQ(samples.min(), 2.0);  // forces the sort cache
  samples.append(Samples{{1.0}});
  EXPECT_DOUBLE_EQ(samples.min(), 1.0);
  EXPECT_DOUBLE_EQ(samples.max(), 4.0);
}

TEST(PercentDifference, Signs) {
  EXPECT_DOUBLE_EQ(percent_difference(100.0, 110.0), 10.0);
  EXPECT_DOUBLE_EQ(percent_difference(100.0, 90.0), -10.0);
  EXPECT_DOUBLE_EQ(percent_difference(50.0, 50.0), 0.0);
}

TEST(RenderTable, AlignsColumns) {
  const auto text = render_table({{"a", "bb"}, {"ccc", "d"}});
  EXPECT_EQ(text, "a    bb\nccc  d\n");
}

TEST(RenderTable, RaggedRows) {
  const auto text = render_table({{"x"}, {"yy", "z"}});
  EXPECT_EQ(text, "x\nyy  z\n");
}

}  // namespace
}  // namespace mahimahi::util
