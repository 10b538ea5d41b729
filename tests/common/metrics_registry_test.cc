// The runtime-counter registry and its tsf-metrics/1 JSON form.
#include "common/metrics_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

// The only translation unit of this binary that includes the interposer.
#include "support/alloc_interposer.h"

namespace tsf::common {
namespace {

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add_counter("a");
  m.add_counter("a", 4);
  m.add_counter("b", 0);
  EXPECT_EQ(m.counter("a"), 5u);
  EXPECT_EQ(m.counter("b"), 0u);
  EXPECT_EQ(m.counter("missing"), 0u);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry m;
  m.set_gauge("u", 0.25);
  m.set_gauge("u", 0.75);
  EXPECT_EQ(m.gauge("u"), 0.75);
  EXPECT_EQ(m.gauge("missing"), 0.0);
}

TEST(MetricsRegistry, UpdatingExistingLongNamesAllocatesNothing) {
  if (!tsf::testing::alloc_interposer_active()) {
    GTEST_SKIP() << "sanitizer build: interposer compiled out";
  }
  // The boundary's own names, all past the 15-byte small-string buffer, so
  // a std::string built per lookup would heap-allocate.
  constexpr std::string_view kCounter = "mp.fabric.deliveries";
  constexpr std::string_view kGauge = "mp.epoch.host_seconds";
  constexpr std::string_view kHistogram = "mp.fabric.drain_size";
  MetricsRegistry m;
  m.add_counter(kCounter);
  m.set_gauge(kGauge, 0.5);
  m.observe(kHistogram, 4.0);

  const std::uint64_t before = tsf::testing::alloc_count();
  for (int i = 0; i < 100; ++i) {
    m.add_counter(kCounter, 2);
    m.set_gauge(kGauge, static_cast<double>(i));
    m.observe(kHistogram, 4.0);  // the bucket the first sample opened
  }
  const std::uint64_t after = tsf::testing::alloc_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(m.counter(kCounter), 201u);
  EXPECT_EQ(m.gauge(kGauge), 99.0);
  ASSERT_NE(m.histogram(kHistogram), nullptr);
  EXPECT_EQ(m.histogram(kHistogram)->count(), 101u);
}

TEST(MetricsRegistry, HistogramTracksDistribution) {
  MetricsRegistry m;
  EXPECT_EQ(m.histogram("lat"), nullptr);
  for (int i = 1; i <= 100; ++i) m.observe("lat", static_cast<double>(i));
  const LogSketch* sketch = m.histogram("lat");
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(sketch->count(), 100u);
  EXPECT_NEAR(sketch->p50(), 50.0, 50.0 * 0.0101);
  EXPECT_NEAR(sketch->p99(), 99.0, 99.0 * 0.0101);
}

TEST(MetricsRegistry, JsonIsSchemaVersionedAndInsertionOrdered) {
  MetricsRegistry m;
  m.add_counter("zz.first", 3);
  m.add_counter("aa.second", 1);
  m.set_gauge("g", 1.5);
  m.observe("h", 2.0);
  m.observe("h", 4.0);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"schema\": \"tsf-metrics/1\""), std::string::npos)
      << json;
  // First-touch order, not alphabetical: counters stay diffable between
  // deterministic runs.
  EXPECT_LT(json.find("zz.first"), json.find("aa.second"));
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;
}

}  // namespace
}  // namespace tsf::common
