#include "common/trace_stream.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/diag.h"
#include "common/time.h"

namespace tsf::common {

// ---------------------------------------------------------------------------
// StreamingVcd

std::size_t StreamingVcd::intern(std::string_view who) {
  const auto it = ids_.find(who);
  if (it != ids_.end()) return it->second;
  const std::size_t id = entities_.size();
  ids_.emplace(std::string(who), id);
  entities_.push_back(Entity{std::string(who), false, 0});
  return id;
}

void StreamingVcd::record(TimePoint at, TraceKind kind, std::string_view who,
                          std::int64_t /*value*/, std::string_view /*note*/) {
  // Intern on every kind: the header must list entities in first-appearance
  // order over the whole stream, exactly like Timeline::entities().
  const std::size_t id = intern(who);
  if (have_instant_ && at.ticks() != cur_at_) {
    TSF_ASSERT(at.ticks() > cur_at_,
               "trace stream went backwards: " << at.ticks() << " after "
                                               << cur_at_);
    flush();
  }
  cur_at_ = at.ticks();
  have_instant_ = true;
  if (opens_interval(kind) || closes_interval(kind)) {
    held_.push_back(Held{kind, id});
  }
}

void StreamingVcd::flush() {
  // Per entity, the records of one instant collapse to at most two edges: a
  // fall (the window open at instant start closed now) and a rise (a window
  // opened now is still open at instant end). Anything opened and closed
  // within the instant is a zero-length window, which busy_intervals drops.
  struct Touch {
    std::size_t entity;
    bool closed_nonzero = false;
  };
  std::vector<Touch> touched;
  for (const Held& h : held_) {
    Entity& e = entities_[h.entity];
    bool seen = false;
    for (const Touch& t : touched) {
      if (t.entity == h.entity) {
        seen = true;
        break;
      }
    }
    if (!seen) touched.push_back(Touch{h.entity});
    if (opens_interval(h.kind)) {
      TSF_ASSERT(!e.open,
                 "entity " << e.name << " started twice at " << cur_at_);
      e.open = true;
      e.begin = cur_at_;
    } else if (e.open) {
      e.open = false;
      if (cur_at_ > e.begin) {
        for (Touch& t : touched) {
          if (t.entity == h.entity) t.closed_nonzero = true;
        }
      }
    }
  }
  held_.clear();

  struct Edge {
    std::size_t signal;
    bool level;
  };
  std::vector<Edge> edges;
  for (const Touch& t : touched) {
    const Entity& e = entities_[t.entity];
    if (t.closed_nonzero) edges.push_back(Edge{t.entity, false});
    if (e.open && e.begin == cur_at_) edges.push_back(Edge{t.entity, true});
  }
  if (edges.empty()) return;
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.signal != b.signal) return a.signal < b.signal;
    return a.level < b.level;  // falling edge before rising at the same time
  });
  if (cur_at_ != emitted_at_) {
    emitted_at_ = cur_at_;
    body_ << '#' << cur_at_ << '\n';
  }
  for (const Edge& e : edges) {
    body_ << (e.level ? '1' : '0') << vcd_identifier(e.signal) << '\n';
  }
}

void StreamingVcd::finish() {
  if (!have_instant_) return;
  flush();
  have_instant_ = false;
}

std::string StreamingVcd::header() const {
  std::ostringstream oss;
  oss << "$timescale 1us $end\n$scope module tsf $end\n";
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    std::string name = entities_[i].name;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    oss << "$var wire 1 " << vcd_identifier(i) << ' ' << name << " $end\n";
  }
  oss << "$upscope $end\n$enddefinitions $end\n#0\n";
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    oss << '0' << vcd_identifier(i) << '\n';
  }
  return oss.str();
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
