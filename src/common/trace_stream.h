// Streaming trace consumers: VCD edges and run metrics computed online.
//
// Both sinks hold per-entity cursor state only — never the trace — so they
// are O(entities) in memory for a trace of any length (StreamingVcd also
// keeps the VCD text it has written). Records arrive in time order and are
// never taken back, so each sink folds a record as it arrives. StreamingVcd
// writes an instant's edges once time moves past it: a busy window opened
// and closed at the same instant is zero length and leaves no edge, exactly
// as Timeline::busy_intervals drops it.
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

// Identifier of the i-th VCD signal: bijective base-94 over the printable
// range '!'..'~' — one character for the first 94 signals, two for the next
// 94^2, and so on.
std::string vcd_identifier(std::size_t index);

// The value-change-dump writer (GTKWave & friends): one 1-bit wire per row,
// high while that entity holds the processor. Timescale: 1 tick = 1 us
// (nominal; virtual time has no physical unit). Within an instant, edges go
// in wire order, a wire's fall before its rise. A window still open when
// the stream ends keeps its rising edge.
class StreamingVcd final : public TraceSink {
 public:
  // One wire per entity, declared in order of first appearance.
  StreamingVcd() = default;
  // One wire per row, declared in this order; records of any other entity
  // are ignored. Rows must be distinct.
  explicit StreamingVcd(const std::vector<std::string>& rows);

  TSF_DETERMINISM_CRITICAL
  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override;

  // Closes the last instant and writes the dump to `out`: the declarations,
  // the #0 block that zeroes every wire, then the edges. Call once.
  TSF_DETERMINISM_CRITICAL
  void finish(std::ostream& out);

 private:
  static constexpr std::size_t kNoWire = static_cast<std::size_t>(-1);

  struct Wire {
    std::string name;
    std::string id;            // vcd_identifier of the wire's index
    bool open = false;         // inside a busy window
    std::int64_t begin = 0;    // where the open window began
    bool touched = false;      // opened or closed at cur_at_
    bool open_before = false;  // `open` as cur_at_ began
  };

  std::size_t wire(std::string_view who);
  void add_wire(std::string_view name);
  void flush();
  void edge(char level, const Wire& w);

  bool fixed_rows_ = false;
  std::vector<Wire> wires_;
  // Determinism audit: lookup-only table; wires are declared and written in
  // `wires_` order, so bucket order is unobservable.
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      ids_;
  std::vector<std::size_t> touched_;  // wires touched at cur_at_
  std::int64_t cur_at_ = 0;
  bool have_instant_ = false;
  std::int64_t stamped_at_ = 0;  // last '#' written; the header writes #0
  std::string body_;             // the edges, '#' stamps included
};

// Online counters and distributions over a trace stream: record/kind
// counts, makespan, per-entity busy time, and a response-time sketch built
// by pairing each entity's kRelease instants with its kComplete instants
// (FIFO per entity).
class StreamingTraceMetrics final : public TraceSink {
 public:
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
  // Determinism audit: lookup-only intern table; aggregates and reports
  // read `entities_` only.
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      ids_;
};

}  // namespace tsf::common
