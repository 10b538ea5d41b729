// Composable trace sinks: fan-out and the streaming fingerprint.
//
// The streaming fingerprint is the proof-of-concept for the whole O(1)
// pipeline: fingerprint(Timeline) is an order-sensitive fold over the final
// record vector, and the engines only ever append to that vector. A sink
// that folds each record into a running hash as it arrives therefore
// reproduces the materialized fingerprint bit for bit, holding nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/trace.h"

namespace tsf::common {

// Fans every record out to each attached sink (none owned). Used to keep
// the materialized Timeline while a streaming consumer listens in.
class TeeSink final : public TraceSink {
 public:
  void add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override {
    for (auto* sink : sinks_) sink->record(at, kind, who, value, note);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

// Folds FNV-1a record by record; digest() is bit-identical to
// fingerprint(Timeline) over the same stream. O(1) memory.
class StreamingFingerprint final : public TraceSink {
 public:
  TSF_DETERMINISM_CRITICAL
  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override {
    hash_ = fnv1a_record(hash_, at, kind, who, value, note);
    ++records_;
  }

  // Records folded so far.
  std::uint64_t records() const { return records_; }

  // The fingerprint of everything seen so far.
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
  std::uint64_t records_ = 0;
};

}  // namespace tsf::common
