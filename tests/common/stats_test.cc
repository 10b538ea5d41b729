#include "common/stats.h"

#include <gtest/gtest.h>

namespace tsf::common {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, MeanAndExtrema) {
  Accumulator a;
  a.add(2.0);
  a.add(4.0);
  a.add(9.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 15.0);
}

TEST(Accumulator, SampleVariance) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(Accumulator, SingleSampleVarianceIsZero) {
  Accumulator a;
  a.add(42.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, NegativeValues) {
  Accumulator a;
  a.add(-3.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(Ratio, UndefinedWhenEmpty) {
  Ratio r;
  EXPECT_FALSE(r.defined());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(Ratio, CountsHits) {
  Ratio r;
  r.add(true);
  r.add(false);
  r.add(true);
  r.add(true);
  EXPECT_TRUE(r.defined());
  EXPECT_EQ(r.numerator(), 3u);
  EXPECT_EQ(r.denominator(), 4u);
  EXPECT_DOUBLE_EQ(r.value(), 0.75);
}

TEST(Ratio, BulkAdd) {
  Ratio r;
  r.add(5, 10);
  r.add(0, 10);
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
}

// Regression: sum() used to be reconstructed as mean() * count(), which
// loses mass on large-N mixed-magnitude input (the mean rounds, the
// reconstruction amplifies the rounding by N).
TEST(Accumulator, ExactSumOnMixedMagnitudes) {
  Accumulator a;
  const int kTriples = 100000;
  for (int i = 0; i < kTriples; ++i) {
    a.add(1e15);
    a.add(1.0);
    a.add(-1e15);
  }
  // The big terms cancel exactly; only the 1.0s remain.
  EXPECT_DOUBLE_EQ(a.sum(), static_cast<double>(kTriples));
}

TEST(Accumulator, ExactSumLargeNSmallIncrements) {
  Accumulator a;
  const int kN = 1 << 20;
  for (int i = 0; i < kN; ++i) a.add(0.1);
  // Kahan-compensated: the error stays O(1 ulp) instead of O(N) ulps.
  EXPECT_NEAR(a.sum(), 0.1 * kN, 1e-6);
  long double exact = 0.0L;
  for (int i = 0; i < kN; ++i) exact += 0.1L;
  EXPECT_NEAR(a.sum(), static_cast<double>(exact), 1e-9);
}

TEST(QuantileReservoir, ExactQuantilesWhenUnbounded) {
  QuantileReservoir r;
  for (int i = 100; i >= 1; --i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_DOUBLE_EQ(r.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.p50(), 50.0);
  EXPECT_DOUBLE_EQ(r.p95(), 95.0);
  EXPECT_DOUBLE_EQ(r.p99(), 99.0);
  EXPECT_DOUBLE_EQ(r.quantile(1.0), 100.0);
}

TEST(QuantileReservoir, EmptyIsZero) {
  QuantileReservoir r;
  EXPECT_TRUE(r.empty());
  EXPECT_DOUBLE_EQ(r.p99(), 0.0);
}

TEST(QuantileReservoir, InterpolatesNearestRankLikeMetrics) {
  // Mirrors exp::ResponseDistribution's floor-index convention.
  QuantileReservoir r;
  for (int i = 1; i <= 10; ++i) r.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(r.p50(), 5.0);
  EXPECT_DOUBLE_EQ(r.quantile(0.9), 9.0);
}

}  // namespace
}  // namespace tsf::common
