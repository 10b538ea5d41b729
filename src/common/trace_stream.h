// Streaming trace consumers: VCD edges and run metrics computed online.
//
// Both sinks hold per-entity cursor state only — never the trace — so they
// are O(entities) in memory for a trace of any length. Records arrive in
// time order and are never taken back, so StreamingTraceMetrics folds each
// one as it arrives. StreamingVcd alone holds the records of the current
// instant: a busy window opened and closed at the same instant is zero
// length, and must leave no edge, exactly as Timeline::busy_intervals drops
// it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "common/string_hash.h"
#include "common/trace.h"

namespace tsf::common {

// Streams VCD edge lines into `body` as virtual time advances. After
// finish(), header() + the body stream is byte-identical to
// to_vcd(timeline, timeline.entities()) for any engine-produced trace (the
// engines close every interval by the final horizon; an interval still open
// at finish is dropped by both paths only when it never closed).
class StreamingVcd final : public TraceSink {
 public:
  explicit StreamingVcd(std::ostream& body) : body_(body) {}

  TSF_DETERMINISM_CRITICAL
  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override;

  // Flushes the final instant. Call once, before header().
  TSF_DETERMINISM_CRITICAL
  void finish();

  // Declarations + the #0 zero-initialization block; prepend to the body.
  std::string header() const;

 private:
  struct Entity {
    std::string name;
    bool open = false;
    std::int64_t begin = 0;
  };
  struct Held {
    TraceKind kind;
    std::size_t entity;
  };

  std::size_t intern(std::string_view who);
  void flush();

  std::ostream& body_;
  std::vector<Entity> entities_;
  // Determinism audit: lookup-only intern table; iteration and all output
  // ordering go through `entities_` (insertion-ordered), so bucket order is
  // unobservable.
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      ids_;
  std::int64_t cur_at_ = 0;
  bool have_instant_ = false;
  std::vector<Held> held_;  // interval-affecting records of cur_at_
  std::int64_t emitted_at_ = 0;
};

// Online counters and distributions over a trace stream: record/kind
// counts, makespan, per-entity busy time, and a response-time sketch built
// by pairing each entity's kRelease instants with its kComplete instants
// (FIFO per entity).
class StreamingTraceMetrics final : public TraceSink {
 public:
  explicit StreamingTraceMetrics(double sketch_accuracy = 0.01)
      : response_sketch_(sketch_accuracy) {}

  TSF_DETERMINISM_CRITICAL
  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override;

  // A no-op: every record is folded as it arrives. Kept for callers that
  // still end the stream with it.
  void finish() {}

  std::uint64_t records() const { return records_; }
  std::uint64_t kind_count(TraceKind kind) const {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }
  std::size_t entity_count() const { return entities_.size(); }
  std::int64_t first_ticks() const { return first_ticks_; }
  std::int64_t last_ticks() const { return last_ticks_; }
  // Sum of closed busy windows over every entity, in ticks.
  std::int64_t busy_ticks() const { return busy_ticks_; }
  // Release-to-complete times (paired per entity, FIFO), in time units.
  const LogSketch& response_sketch() const { return response_sketch_; }
  const Accumulator& response_stats() const { return response_stats_; }

 private:
  struct Entity {
    std::string name;
    bool open = false;
    std::int64_t begin = 0;
    std::deque<std::int64_t> outstanding_releases;
  };

  std::size_t intern(std::string_view who);

  std::uint64_t records_ = 0;
  std::uint64_t kind_counts_[kTraceKindCount] = {};
  std::int64_t first_ticks_ = 0;
  std::int64_t last_ticks_ = 0;
  bool any_ = false;
  std::int64_t busy_ticks_ = 0;
  LogSketch response_sketch_;
  Accumulator response_stats_;
  std::vector<Entity> entities_;
  // Determinism audit: lookup-only intern table, same contract as
  // StreamingVcd::ids_ — aggregates and reports read `entities_` only.
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      ids_;
};

}  // namespace tsf::common
