#include "common/trace.h"

#include <algorithm>
#include <sstream>

#include "common/diag.h"

namespace tsf::common {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRelease:
      return "release";
    case TraceKind::kStart:
      return "start";
    case TraceKind::kPreempt:
      return "preempt";
    case TraceKind::kResume:
      return "resume";
    case TraceKind::kComplete:
      return "complete";
    case TraceKind::kAbort:
      return "abort";
    case TraceKind::kReplenish:
      return "replenish";
    case TraceKind::kCapacity:
      return "capacity";
    case TraceKind::kFire:
      return "fire";
    case TraceKind::kNote:
      return "note";
    case TraceKind::kAdmit:
      return "admit";
    case TraceKind::kDemote:
      return "demote";
    case TraceKind::kShed:
      return "shed";
  }
  return "?";
}

bool trace_kind_from_string(std::string_view name, TraceKind* kind) {
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    const auto candidate = static_cast<TraceKind>(k);
    if (name == to_string(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

void Timeline::record(TimePoint at, TraceKind kind, std::string_view who,
                      std::int64_t value, std::string_view note) {
  records_.push_back(
      TraceRecord{at, kind, std::string(who), value, std::string(note)});
}

std::vector<Interval> Timeline::busy_intervals(const std::string& who) const {
  std::vector<Interval> out;
  bool open = false;
  TimePoint begin;
  for (const auto& r : records_) {
    if (r.who != who) continue;
    if (opens_interval(r.kind)) {
      TSF_ASSERT(!open, "entity " << who << " started twice at " << r.at);
      open = true;
      begin = r.at;
    } else if (closes_interval(r.kind) && open) {
      open = false;
      if (r.at > begin) out.push_back(Interval{begin, r.at});
    }
  }
  return out;
}

std::vector<TimePoint> Timeline::marks(const std::string& who,
                                       TraceKind kind) const {
  std::vector<TimePoint> out;
  for (const auto& r : records_) {
    if (r.who == who && r.kind == kind) out.push_back(r.at);
  }
  return out;
}

std::vector<std::string> Timeline::entities() const {
  std::vector<std::string> out;
  for (const auto& r : records_) {
    if (std::find(out.begin(), out.end(), r.who) == out.end()) {
      out.push_back(r.who);
    }
  }
  return out;
}

namespace {

// RFC-4180-style quoting: only fields that would break the column structure
// get quoted, so the common case (plain identifiers) stays byte-identical
// to the historical format.
void append_csv_field(std::string* out, const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (const char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string Timeline::to_csv() const {
  std::string out = "ticks,kind,who,value,note\n";
  for (const auto& r : records_) {
    out += std::to_string(r.at.ticks());
    out.push_back(',');
    out += to_string(r.kind);
    out.push_back(',');
    append_csv_field(&out, r.who);
    out.push_back(',');
    out += std::to_string(r.value);
    out.push_back(',');
    append_csv_field(&out, r.note);
    out.push_back('\n');
  }
  return out;
}

std::uint64_t fnv1a_record(std::uint64_t h, TimePoint at, TraceKind kind,
                           std::string_view who, std::int64_t value,
                           std::string_view note) {
  h = fnv1a_u64(h, static_cast<std::uint64_t>(at.ticks()));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(kind));
  h = fnv1a_str(h, who);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(value));
  h = fnv1a_str(h, note);
  return h;
}

std::uint64_t fingerprint(const Timeline& timeline) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const auto& r : timeline.records()) {
    h = fnv1a_record(h, r.at, r.kind, r.who, r.value, r.note);
  }
  return h;
}

std::string render_gantt(const Timeline& timeline,
                         const std::vector<std::string>& rows,
                         const GanttOptions& options) {
  TSF_ASSERT(options.cell.count() > 0, "gantt cell must be positive");
  TSF_ASSERT(options.end > options.begin, "gantt window must be non-empty");
  const std::int64_t cells =
      ((options.end - options.begin).count() + options.cell.count() - 1) /
      options.cell.count();

  std::size_t label_width = 4;
  for (const auto& name : rows) label_width = std::max(label_width, name.size());
  label_width += 2;

  std::ostringstream oss;

  // Time ruler: one label every 5 cells, in time units.
  oss << std::string(label_width, ' ');
  for (std::int64_t c = 0; c < cells; ++c) {
    if (c % 5 == 0) {
      const double tu = (options.begin + options.cell * c).to_tu();
      std::ostringstream lbl;
      lbl << tu;
      std::string s = lbl.str();
      oss << s;
      // Skip the cells the label covered (minus one; loop increments).
      std::int64_t skip = static_cast<std::int64_t>(s.size()) - 1;
      c += skip;
      for (std::int64_t k = 0; k < skip; ++k) {
        if ((c - skip + k + 1) % 5 == 0) break;  // never overlap next label
      }
    } else {
      oss << ' ';
    }
  }
  oss << '\n';

  for (const auto& name : rows) {
    const auto intervals = timeline.busy_intervals(name);
    const auto releases = timeline.marks(name, TraceKind::kRelease);

    std::string row(static_cast<std::size_t>(cells), '.');
    for (const auto& iv : intervals) {
      const std::int64_t from =
          std::max<std::int64_t>(0, (iv.begin - options.begin).count() /
                                        options.cell.count());
      // End is exclusive; a window that merely touches a cell boundary does
      // not occupy the next cell.
      const std::int64_t to = std::min<std::int64_t>(
          cells, ((iv.end - options.begin).count() + options.cell.count() - 1) /
                     options.cell.count());
      for (std::int64_t c = from; c < to; ++c) {
        row[static_cast<std::size_t>(c)] = '#';
      }
    }
    if (options.show_releases) {
      for (const auto at : releases) {
        const std::int64_t c = (at - options.begin).count() / options.cell.count();
        if (c >= 0 && c < cells) {
          auto& ch = row[static_cast<std::size_t>(c)];
          ch = (ch == '#') ? '@' : '^';
        }
      }
    }

    oss << name << std::string(label_width - name.size(), ' ') << row << '\n';
  }
  return oss.str();
}

}  // namespace tsf::common
