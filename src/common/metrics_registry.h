// Runtime counters, gauges and histograms surfaced by the engines.
//
// The registry is a plain in-process sink: the mp runtime bumps counters at
// epoch boundaries and the CLI serializes the whole registry once at the
// end of a run as a tsf-metrics/1 JSON document. Names are dotted paths
// ("mp.fabric.deliveries"); insertion order is preserved so emitted
// documents are deterministic for a deterministic run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "common/string_hash.h"

namespace tsf::common {

class MetricsRegistry {
 public:
  // Monotonic count of discrete events.
  void add_counter(std::string_view name, std::uint64_t delta = 1);
  // Last-write-wins point-in-time value.
  void set_gauge(std::string_view name, double value);
  // Sample into a distribution (LogSketch quantiles + exact moments).
  void observe(std::string_view name, double value);

  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  // Null when the histogram has never been observed.
  const LogSketch* histogram(std::string_view name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // tsf-metrics/1 document:
  //   {
  //     "schema": "tsf-metrics/1",
  //     "counters": { "<name>": <u64>, ... },
  //     "gauges": { "<name>": <double>, ... },
  //     "histograms": [ { "name": ..., "count": ..., "mean": ...,
  //                       "min": ..., "max": ...,
  //                       "p50": ..., "p95": ..., "p99": ... }, ... ]
  //   }
  // Entries appear in first-touch order.
  TSF_DETERMINISM_CRITICAL
  std::string to_json() const;

 private:
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    double value = 0.0;
  };
  struct Histogram {
    std::string name;
    LogSketch sketch;
    Accumulator stats;
  };

  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<Histogram> histograms_;
  // Determinism audit: the three index maps are lookup-only (find/emplace,
  // never iterated). to_json() walks the vectors above, which preserve
  // first-touch order — that invariant is pinned by
  // tests/common/determinism_order_test.cc. Lookups take the caller's
  // string_view as is, so bumping an existing entry never allocates.
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      counter_index_;
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      gauge_index_;
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      histogram_index_;
};

}  // namespace tsf::common
