// Execution tracing shared by both engines.
//
// The simulator and the RTSJ-style VM emit the same record stream, which
// gives us one Gantt renderer for the paper's figures and one interval
// extractor for tests that assert exact execution windows (e.g. "h2 runs in
// [12,14) in scenario 2").
//
// Emission goes through the TraceSink interface: the engines call record()
// on a sink pointer, and the in-memory Timeline is just one implementation
// of it. The trace is append-only — a record, once emitted, is never taken
// back — so the streaming sinks (common/trace_sink.h, common/trace_io.h,
// common/trace_stream.h) consume the same stream without materializing it,
// which is what keeps horizon-scale runs O(1) in trace length.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"

namespace tsf::common {

enum class TraceKind {
  kRelease,    // job/event released (arrival)
  kStart,      // entity begins executing on the processor
  kPreempt,    // entity loses the processor, will resume later
  kResume,     // entity regains the processor
  kComplete,   // entity finished its current job
  kAbort,      // entity's current job was abandoned (e.g. AIE interruption)
  kReplenish,  // server capacity replenished (value = new capacity, ticks)
  kCapacity,   // server capacity changed (value = remaining capacity, ticks)
  kFire,       // async event fired
  kNote,       // free-form annotation
  kAdmit,      // overload: job admitted to the privileged set (value =
               //           release ticks)
  kDemote,     // overload: job demoted out of the privileged set (value =
               //           release ticks)
  kShed,       // overload: job dropped, never to be served (value = release
               //           ticks, note = reason)
};

// One past the last TraceKind value — bounds kind counters and validates
// kinds read back from serialized traces.
inline constexpr std::size_t kTraceKindCount =
    static_cast<std::size_t>(TraceKind::kShed) + 1;

// The one rule for which kinds open and close an entity's busy window,
// shared by Timeline::busy_intervals, the streaming sinks and read_trace.
inline bool opens_interval(TraceKind kind) {
  return kind == TraceKind::kStart || kind == TraceKind::kResume;
}
inline bool closes_interval(TraceKind kind) {
  return kind == TraceKind::kPreempt || kind == TraceKind::kComplete ||
         kind == TraceKind::kAbort;
}

const char* to_string(TraceKind kind);

// Inverse of to_string; returns false on an unknown kind name.
bool trace_kind_from_string(std::string_view name, TraceKind* kind);

struct TraceRecord {
  TimePoint at;
  TraceKind kind;
  std::string who;
  std::int64_t value = 0;
  std::string note;
};

// A contiguous window during which an entity held the processor.
struct Interval {
  TimePoint begin;
  TimePoint end;
  bool operator==(const Interval&) const = default;
};

// Consumer of a trace stream. Both engines emit records in non-decreasing
// time order and never take one back, so a streaming sink folds each record
// into its running state as it arrives.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void record(TimePoint at, TraceKind kind, std::string_view who,
                      std::int64_t value = 0, std::string_view note = {}) = 0;
};

class Timeline : public TraceSink {
 public:
  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override;

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  // Stitches kStart/kResume..kPreempt/kComplete/kAbort into busy windows for
  // one entity. Zero-length windows are dropped.
  std::vector<Interval> busy_intervals(const std::string& who) const;

  // All instants at which `kind` was recorded for `who`.
  std::vector<TimePoint> marks(const std::string& who, TraceKind kind) const;

  // Distinct entity names in order of first appearance.
  std::vector<std::string> entities() const;

  // One record per line, "ticks,kind,who,value,note". Fields containing a
  // comma, quote or newline are quoted RFC-4180 style ('"' doubled), so
  // free-form notes round-trip through timeline_from_csv.
  std::string to_csv() const;

 private:
  std::vector<TraceRecord> records_;
};

// Parses the to_csv format back into a timeline (header line required).
// Returns false with a message in *error on malformed input.
bool timeline_from_csv(std::string_view csv, Timeline* out,
                       std::string* error);

// Renders an ASCII Gantt chart of the busy intervals, one row per entity,
// in the style of the paper's figures 2-4.
struct GanttOptions {
  // Virtual time per character cell.
  Duration cell = Duration::ticks(500);  // half a paper time unit
  TimePoint begin = TimePoint::origin();
  TimePoint end = TimePoint::at_ticks(60 * Duration::kTicksPerTimeUnit);
  bool show_releases = true;  // '^' marks under each row
};

std::string render_gantt(const Timeline& timeline,
                         const std::vector<std::string>& rows,
                         const GanttOptions& options = {});

// FNV-1a folding helpers shared by fingerprint(Timeline) and the streaming
// fingerprint sink — both must fold exactly the same bytes per record.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a_bytes(h, &v, sizeof v);
}

inline std::uint64_t fnv1a_str(std::uint64_t h, std::string_view s) {
  h = fnv1a_u64(h, s.size());
  return fnv1a_bytes(h, s.data(), s.size());
}

// Folds one trace record: (ticks, kind, who, value, note).
TSF_DETERMINISM_CRITICAL
std::uint64_t fnv1a_record(std::uint64_t h, TimePoint at, TraceKind kind,
                           std::string_view who, std::int64_t value,
                           std::string_view note);

// Order-sensitive 64-bit hash (FNV-1a) over every record field. Two runs of
// a deterministic engine must produce equal fingerprints; the mp tests and
// the scaling bench use this to assert bit-reproducibility of multi-core
// runs without storing full traces.
TSF_DETERMINISM_CRITICAL
std::uint64_t fingerprint(const Timeline& timeline);

// Identifier of the i-th VCD signal: bijective base-94 over the printable
// range '!'..'~' — one character for the first 94 signals (compatible with
// the historical single-char scheme), two for the next 94^2, and so on.
std::string vcd_identifier(std::size_t index);

// Value-change-dump export (GTKWave & friends): one 1-bit wire per entity,
// high while the entity holds the processor. Timescale: 1 tick = 1 us
// (nominal; virtual time has no physical unit). Entities in `rows`; pass
// timeline.entities() for everything.
std::string to_vcd(const Timeline& timeline,
                   const std::vector<std::string>& rows);

}  // namespace tsf::common
