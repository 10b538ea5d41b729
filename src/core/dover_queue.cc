#include "core/dover_queue.h"

#include <algorithm>
#include <cmath>

#include "common/diag.h"
#include "core/servable_async_event_handler.h"

namespace tsf::core {

namespace {

// Declared cost, the same signal the other disciplines schedule on.
rtsj::RelativeTime declared(const Request& r) { return r.handler->cost(); }

}  // namespace

DOverQueue::DOverQueue(Config config) : config_(std::move(config)) {
  TSF_ASSERT(config_.bandwidth_num > 0 && config_.bandwidth_den > 0,
             "dover queue needs a positive server bandwidth");
  TSF_ASSERT(config_.now && config_.meta && config_.on_admit &&
                 config_.on_demote && config_.on_shed,
             "dover queue needs every callback wired");
  const double k = std::max(1.0, config_.importance_ratio);
  takeover_factor_ = 1.0 + std::sqrt(k);
}

rtsj::RelativeTime DOverQueue::scaled(rtsj::RelativeTime cost) const {
  const std::int64_t ticks =
      (cost.count() * config_.bandwidth_num + config_.bandwidth_den - 1) /
      config_.bandwidth_den;
  return rtsj::RelativeTime::ticks(ticks);
}

rtsj::AbsoluteTime DOverQueue::latest_start(const Entry& e) const {
  return e.deadline - scaled(declared(e.request));
}

bool DOverQueue::feasible_with(const Entry& candidate,
                               rtsj::AbsoluteTime now) const {
  // Processor-demand test over the privileged set plus the candidate, in
  // server time: cumulative scaled demand served EDF from `now` must meet
  // every firm deadline.
  std::vector<const Entry*> set;
  for (const auto& e : entries_) {
    if (e.privileged) set.push_back(&e);
  }
  set.push_back(&candidate);
  std::sort(set.begin(), set.end(), [](const Entry* a, const Entry* b) {
    if (a->deadline != b->deadline) return a->deadline < b->deadline;
    return a->request.seq < b->request.seq;
  });
  rtsj::AbsoluteTime t = now;
  for (const Entry* e : set) {
    t += scaled(declared(e->request));
    if (!e->deadline.is_never() && t > e->deadline) return false;
  }
  return true;
}

void DOverQueue::push(Request r) {
  Entry e;
  const JobMeta meta = config_.meta(r);
  e.deadline = meta.relative_deadline.is_zero()
                   ? rtsj::AbsoluteTime::never()
                   : r.release + meta.relative_deadline;
  e.value = meta.value;
  e.request = std::move(r);
  entries_.push_back(std::move(e));
  reconcile();
}

void DOverQueue::reconcile() {
  const rtsj::AbsoluteTime now = config_.now();
  // The decision sweeps run in server time at discrete instants (every push
  // and every dispatch attempt), not at exact LST timers: a waiting entry's
  // takeover decision fires once it could not survive to the next server
  // period. `changed` loops until a sweep alters nothing.
  const rtsj::RelativeTime period =
      rtsj::RelativeTime::ticks(config_.bandwidth_num);
  bool changed = true;
  while (changed) {
    changed = false;

    // 1. Privileged firm entries that can no longer complete even if started
    //    immediately: demote out of the set, then shed.
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->privileged && !it->deadline.is_never() &&
          now > latest_start(*it)) {
        config_.on_demote(it->request);
        config_.on_shed(it->request, "missed-lst");
        it = entries_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }

    // 2. Waiting entries, earliest deadline first: admit any that pass the
    //    feasibility test against the current privileged set. Soft entries
    //    (deadline = never) always pass — they cannot constrain the test.
    std::vector<std::size_t> waiting;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].privileged) waiting.push_back(i);
    }
    std::sort(waiting.begin(), waiting.end(),
              [&](std::size_t a, std::size_t b) {
                if (entries_[a].deadline != entries_[b].deadline) {
                  return entries_[a].deadline < entries_[b].deadline;
                }
                return entries_[a].request.seq < entries_[b].request.seq;
              });
    for (std::size_t idx : waiting) {
      Entry& e = entries_[idx];
      if (now > latest_start(e)) continue;  // handled by step 3
      if (feasible_with(e, now)) {
        e.privileged = true;
        config_.on_admit(e.request, /*takeover=*/false);
        changed = true;
      }
    }
    if (changed) continue;

    // 3. The LST rule, one critical entry per sweep: a waiting firm entry
    //    that cannot survive until the next server period must start now or
    //    never. If its value beats (1 + sqrt(k)) times the privileged
    //    firm value, the privileged set is demoted and it takes over;
    //    otherwise (or when it could not complete anyway, or it already
    //    used its one LST decision) it is shed.
    for (std::size_t idx : waiting) {
      Entry& e = entries_[idx];
      if (e.deadline.is_never()) continue;
      const rtsj::AbsoluteTime lst = latest_start(e);
      if (lst >= now + period) continue;  // not critical yet
      const bool completable = now <= lst;
      if (completable && !e.lst_fired) {
        e.lst_fired = true;
        double privileged_value = 0.0;
        for (const auto& p : entries_) {
          if (p.privileged && !p.deadline.is_never()) {
            privileged_value += p.value;
          }
        }
        if (e.value > takeover_factor_ * privileged_value) {
          for (auto& p : entries_) {
            if (p.privileged && !p.deadline.is_never()) {
              p.privileged = false;
              config_.on_demote(p.request);
            }
          }
          e.privileged = true;
          config_.on_admit(e.request, /*takeover=*/true);
          changed = true;
          break;
        }
      }
      config_.on_shed(e.request, "lst");
      entries_.erase(entries_.begin() +
                     static_cast<std::ptrdiff_t>(idx));
      changed = true;
      break;
    }
  }
}

std::optional<Request> DOverQueue::pop_fitting(const FitsFn& fits) {
  reconcile();
  // EDF over the privileged set, first-fit on the server's capacity rule.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].privileged) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (entries_[a].deadline != entries_[b].deadline) {
      return entries_[a].deadline < entries_[b].deadline;
    }
    return entries_[a].request.seq < entries_[b].request.seq;
  });
  for (std::size_t idx : order) {
    if (!fits(declared(entries_[idx].request))) continue;
    Request r = std::move(entries_[idx].request);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(idx));
    return r;
  }
  return std::nullopt;
}

std::vector<Request> DOverQueue::drain() {
  std::vector<Request> out;
  out.reserve(entries_.size());
  for (auto& e : entries_) out.push_back(std::move(e.request));
  entries_.clear();
  return out;
}

void DOverQueue::take(const TakeFn& pred, std::vector<Request>* out) {
  auto kept = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (pred(it->request)) {
      if (it->privileged) config_.on_demote(it->request);
      out->push_back(std::move(it->request));
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  entries_.erase(kept, entries_.end());
}

void DOverQueue::visit(const VisitFn& fn) const {
  for (const auto& e : entries_) fn(e.request);
}

std::size_t DOverQueue::privileged_count() const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.privileged) ++n;
  }
  return n;
}

}  // namespace tsf::core
