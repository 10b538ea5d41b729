// Mergeable log-bucket quantile sketch: accuracy bound and exact sharded
// merge.
#include "common/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace tsf::common {
namespace {

// Deterministic xorshift so the suite never depends on library RNG details.
std::uint64_t next(std::uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

TEST(LogSketch, QuantilesWithinRelativeAccuracy) {
  LogSketch sketch(0.01);
  std::vector<double> values;
  std::uint64_t s = 42;
  for (int i = 0; i < 20000; ++i) {
    const double x =
        0.001 + static_cast<double>(next(&s) % 1000000) / 997.0;
    values.push_back(x);
    sketch.add(x);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = exact_quantile(values, q);
    EXPECT_NEAR(sketch.quantile(q), exact, 0.0101 * exact) << "q=" << q;
  }
}

TEST(LogSketch, ShardedMergeIsBitIdenticalToSerial) {
  LogSketch whole(0.01);
  std::vector<LogSketch> parts(4, LogSketch(0.01));
  std::uint64_t s = 7;
  for (int i = 0; i < 5000; ++i) {
    const double x = static_cast<double>(next(&s) % 100000) / 13.0;
    whole.add(x);
    parts[static_cast<std::size_t>(i % 4)].add(x);
  }
  // Merge in a scrambled order; integer bucket addition is commutative.
  LogSketch pooled(0.01);
  for (const int p : {2, 0, 3, 1}) {
    pooled.merge(parts[static_cast<std::size_t>(p)]);
  }
  EXPECT_TRUE(pooled == whole);
  EXPECT_EQ(pooled.p99(), whole.p99());  // bitwise, not approximate
}

TEST(LogSketch, ZeroValuesReportZero) {
  LogSketch sketch;
  sketch.add(0.0);
  sketch.add(0.0);
  EXPECT_EQ(sketch.p50(), 0.0);
  EXPECT_EQ(sketch.count(), 2u);

  // A sample below kMinValue lands in the zero bucket too.
  LogSketch tiny;
  tiny.add(LogSketch::kMinValue / 1000.0);
  EXPECT_EQ(tiny.p50(), 0.0);
  EXPECT_EQ(tiny.p99(), 0.0);
  EXPECT_EQ(tiny.count(), 1u);
}

TEST(LogSketch, EmptyQuantileIsZero) {
  const LogSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.p99(), 0.0);
}

}  // namespace
}  // namespace tsf::common
