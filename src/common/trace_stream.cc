#include "common/trace_stream.h"

#include <algorithm>
#include <ostream>

#include "common/diag.h"
#include "common/time.h"

namespace tsf::common {

// ---------------------------------------------------------------------------
// StreamingVcd

std::string vcd_identifier(std::size_t index) {
  // Bijective base-94: 0 → "!", 93 → "~", 94 → "!!", ...
  std::string id;
  std::size_t n = index + 1;
  while (n > 0) {
    n -= 1;
    id.insert(id.begin(), static_cast<char>('!' + n % 94));
    n /= 94;
  }
  return id;
}

StreamingVcd::StreamingVcd(const std::vector<std::string>& rows)
    : fixed_rows_(true) {
  for (const auto& row : rows) {
    TSF_ASSERT(ids_.find(row) == ids_.end(),
               "VCD row " << row << " is listed twice");
    add_wire(row);
  }
}

void StreamingVcd::add_wire(std::string_view name) {
  ids_.emplace(std::string(name), wires_.size());
  wires_.push_back(Wire{std::string(name), vcd_identifier(wires_.size())});
}

std::size_t StreamingVcd::wire(std::string_view who) {
  const auto it = ids_.find(who);
  if (it != ids_.end()) return it->second;
  if (fixed_rows_) return kNoWire;
  add_wire(who);
  return wires_.size() - 1;
}

void StreamingVcd::record(TimePoint at, TraceKind kind, std::string_view who,
                          std::int64_t /*value*/, std::string_view /*note*/) {
  // Look up on every kind: without a row list, wires are declared in order
  // of first appearance over the whole stream, like Timeline::entities().
  const std::size_t i = wire(who);
  if (have_instant_ && at.ticks() != cur_at_) {
    TSF_ASSERT(at.ticks() > cur_at_,
               "trace stream went backwards: " << at.ticks() << " after "
                                               << cur_at_);
    flush();
  }
  cur_at_ = at.ticks();
  have_instant_ = true;
  if (i == kNoWire || !(opens_interval(kind) || closes_interval(kind))) {
    return;
  }
  Wire& w = wires_[i];
  if (!w.touched) {
    w.touched = true;
    w.open_before = w.open;
    touched_.push_back(i);
  }
  if (opens_interval(kind)) {
    TSF_ASSERT(!w.open,
               "entity " << w.name << " started twice at " << cur_at_);
    w.open = true;
    w.begin = cur_at_;
  } else {
    w.open = false;
  }
}

void StreamingVcd::flush() {
  // Per wire, an instant leaves at most a fall (the window open as the
  // instant began has closed) and then a rise (a window opened now is still
  // open). A window opened and closed within the instant leaves nothing.
  std::sort(touched_.begin(), touched_.end());
  for (const std::size_t i : touched_) {
    Wire& w = wires_[i];
    w.touched = false;
    const bool rise = w.open && w.begin == cur_at_;
    if (w.open_before && (rise || !w.open)) edge('0', w);
    if (rise) edge('1', w);
  }
  touched_.clear();
}

void StreamingVcd::edge(char level, const Wire& w) {
  if (cur_at_ != stamped_at_) {
    stamped_at_ = cur_at_;
    body_ += '#';
    body_ += std::to_string(cur_at_);
    body_ += '\n';
  }
  body_ += level;
  body_ += w.id;
  body_ += '\n';
}

void StreamingVcd::finish(std::ostream& out) {
  if (have_instant_) flush();
  out << "$timescale 1us $end\n$scope module tsf $end\n";
  for (const Wire& w : wires_) {
    std::string name = w.name;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    out << "$var wire 1 " << w.id << ' ' << name << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n#0\n";
  for (const Wire& w : wires_) out << '0' << w.id << '\n';
  out << body_;
}

// ---------------------------------------------------------------------------
// StreamingTraceMetrics

std::size_t StreamingTraceMetrics::intern(std::string_view who) {
  const auto it = ids_.find(who);
  if (it != ids_.end()) return it->second;
  const std::size_t id = entities_.size();
  ids_.emplace(std::string(who), id);
  entities_.push_back(Entity{std::string(who), false, 0, {}});
  return id;
}

void StreamingTraceMetrics::record(TimePoint at, TraceKind kind,
                                   std::string_view who,
                                   std::int64_t /*value*/,
                                   std::string_view /*note*/) {
  const std::size_t id = intern(who);
  Entity& e = entities_[id];
  const std::int64_t now = at.ticks();
  TSF_ASSERT(!any_ || now >= last_ticks_,
             "trace stream went backwards: " << now << " after "
                                             << last_ticks_);
  ++records_;
  ++kind_counts_[static_cast<std::size_t>(kind)];
  if (!any_) {
    any_ = true;
    first_ticks_ = now;
  }
  last_ticks_ = now;
  if (opens_interval(kind)) {
    TSF_ASSERT(!e.open, "entity " << e.name << " started twice at " << now);
    e.open = true;
    e.begin = now;
  } else if (closes_interval(kind) && e.open) {
    e.open = false;
    busy_ticks_ += now - e.begin;
  }
  if (kind == TraceKind::kRelease) {
    e.outstanding_releases.push_back(now);
  } else if (kind == TraceKind::kComplete && !e.outstanding_releases.empty()) {
    const std::int64_t released = e.outstanding_releases.front();
    e.outstanding_releases.pop_front();
    const double response_tu =
        static_cast<double>(now - released) /
        static_cast<double>(Duration::kTicksPerTimeUnit);
    response_sketch_.add(response_tu);
    response_stats_.add(response_tu);
  }
}

}  // namespace tsf::common
