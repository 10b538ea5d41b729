// Mergeable fixed-gamma log-bucket quantile sketch (DDSketch-style).
//
// Values are binned by ceil(log_gamma(x)) with gamma = (1+a)/(1-a), which
// guarantees every reported quantile is within relative error `a`
// (kRelativeAccuracy) of the exact nearest-rank sample. Bucket counts are
// integers, so merging two sketches is exact addition — the merged sketch is
// bit-identical whether samples were added to one sketch or sharded across
// many and merged in any order. That is the property the shard harness
// needs: per-cell response-time distributions, computed on whichever thread
// ran the cell, pool in memory exactly for any --jobs N, where a sampling
// reservoir could not.
//
// Values below kMinValue (including zero; responses are never negative
// here) land in a dedicated zero bucket and report as 0.0.
#pragma once

#include "common/annotations.h"

#include <cstddef>
#include <cstdint>
#include <map>

namespace tsf::common {

class LogSketch {
 public:
  static constexpr double kMinValue = 1e-9;
  // The worst-case relative error of any quantile.
  static constexpr double kRelativeAccuracy = 0.01;

  LogSketch();

  void add(double x);

  // Adds every bucket of `other`.
  TSF_DETERMINISM_CRITICAL
  void merge(const LogSketch& other);

  std::size_t count() const { return total_; }
  bool empty() const { return total_ == 0; }
  double relative_accuracy() const { return kRelativeAccuracy; }

  // Nearest-rank quantile, q in [0,1]; 0 when empty. The reported value is
  // the bucket midpoint 2*gamma^i/(gamma+1), within kRelativeAccuracy of
  // the exact sample at that rank.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  // Exact equality — identical bucket counts.
  bool operator==(const LogSketch& other) const {
    return zero_ == other.zero_ && buckets_ == other.buckets_;
  }

 private:
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t zero_ = 0;
  std::size_t total_ = 0;
  std::map<std::int32_t, std::uint64_t> buckets_;
};

}  // namespace tsf::common
