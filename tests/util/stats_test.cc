#include "util/stats.h"

#include <gtest/gtest.h>

namespace elmo::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs{1.0, 4.0, 9.0, 16.0, 25.0};
  double sum = 0;
  for (const auto x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0;
  for (const auto x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 25.0);
  EXPECT_DOUBLE_EQ(s.sum(), sum);
}

TEST(OnlineStats, MergeEqualsSingleStream) {
  OnlineStats merged_a;
  OnlineStats merged_b;
  OnlineStats whole;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i;
    whole.add(x);
    (i % 2 == 0 ? merged_a : merged_b).add(x);
  }
  merged_a.merge(merged_b);
  EXPECT_EQ(merged_a.count(), whole.count());
  EXPECT_NEAR(merged_a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged_a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(merged_a.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged_a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a;
  a.add(3.0);
  a.add(5.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);

  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 4.0);
}

TEST(Percentile, NearestRankSemantics) {
  const std::vector<double> xs{15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 30), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 40), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 35.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 15.0);
}

TEST(Percentile, SingleSamplePinsEveryRank) {
  const std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(one, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile(one, 100), 7.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

TEST(Distribution, TracksValuesAndStats) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_EQ(d.count(), 100u);
  EXPECT_DOUBLE_EQ(d.stats().mean(), 50.5);
  EXPECT_DOUBLE_EQ(d.percentile(95), 95.0);
}

}  // namespace
}  // namespace elmo::util
