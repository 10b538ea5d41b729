#include "sim/simulator.h"

#include <algorithm>
#include <limits>

#include "common/diag.h"

namespace tsf::sim {

using common::Duration;
using common::TimePoint;
using common::TraceKind;

Simulator::Simulator(model::SystemSpec spec) : spec_(std::move(spec)) {
  trace_.add(&result_.timeline);
  TSF_ASSERT(!spec_.horizon.is_never(), "simulator needs a finite horizon");

  arrivals_ = spec_.aperiodic_jobs;
  // Triggered jobs are released only by a cross-core fire, and the
  // simulator has no channel fabric: park them behind the timed arrivals
  // so they end the run unserved instead of being released at their
  // (meaningless) default instant.
  const auto timed_end = std::stable_partition(
      arrivals_.begin(), arrivals_.end(),
      [](const model::AperiodicJobSpec& j) { return !j.triggered; });
  timed_arrivals_ =
      static_cast<std::size_t>(std::distance(arrivals_.begin(), timed_end));
  std::stable_sort(arrivals_.begin(), timed_end,
                   [](const model::AperiodicJobSpec& a,
                      const model::AperiodicJobSpec& b) {
                     return a.release < b.release;
                   });

  ready_periodic_.resize(spec_.periodic_tasks.size());
  next_release_.reserve(spec_.periodic_tasks.size());
  for (const auto& t : spec_.periodic_tasks) next_release_.push_back(t.start);

  const auto policy = spec_.server.policy;
  const bool periodic_replenish = policy == model::ServerPolicy::kPolling ||
                                  policy == model::ServerPolicy::kDeferrable;
  next_replenish_ =
      periodic_replenish ? TimePoint::origin() : TimePoint::never();
  if (policy == model::ServerPolicy::kSporadic) {
    capacity_ = spec_.server.capacity;
  }
}

void Simulator::ss_close_segment() {
  if (!ss_segment_open_) return;
  ss_segment_open_ = false;
  if (ss_segment_consumed_ > Duration::zero()) {
    // Replenishment rule (Sprunt et al., simplified per DESIGN.md): the
    // consumed amount returns one period after the segment began.
    ss_replenishments_.push_back(
        {ss_segment_start_ + spec_.server.period, ss_segment_consumed_});
  }
  ss_segment_consumed_ = Duration::zero();
}

void Simulator::process_arrivals() {
  // Aperiodic arrivals first, then periodic releases: a Polling Server
  // activating at the same instant as an arrival polls a non-empty queue
  // (this matches the execution engine's kernel-timers-first rule).
  while (next_arrival_ < timed_arrivals_ &&
         arrivals_[next_arrival_].release <= now_) {
    const auto& spec = arrivals_[next_arrival_];
    AperiodicJob j;
    j.index = next_arrival_;
    j.release = spec.release;
    j.remaining = spec.cost;
    aqueue_.push_back(j);
    trace_.record(now_, TraceKind::kRelease, spec.name);
    ++next_arrival_;
  }
  for (std::size_t i = 0; i < spec_.periodic_tasks.size(); ++i) {
    while (next_release_[i] <= now_ && next_release_[i] < spec_.horizon) {
      PeriodicJob j;
      j.task = i;
      j.release = next_release_[i];
      j.remaining = spec_.periodic_tasks[i].cost;
      ready_periodic_[i].push_back(j);
      next_release_[i] += spec_.periodic_tasks[i].period;
    }
  }
}

void Simulator::process_replenishment() {
  while (!ss_replenishments_.empty() && ss_replenishments_.front().at <= now_) {
    capacity_ = common::min(capacity_ + ss_replenishments_.front().amount,
                            spec_.server.capacity);
    ss_replenishments_.pop_front();
    ++result_.server_activations;
    trace_.record(now_, TraceKind::kReplenish, "server", capacity_.count());
  }
  while (next_replenish_ <= now_) {
    ++result_.server_activations;
    if (spec_.server.policy == model::ServerPolicy::kPolling) {
      // "The PS is activated every period with its full capacity. If there
      // are aperiodic tasks pending, it serves them ... and then loses its
      // remaining capacity" — an empty poll forfeits the whole budget.
      ps_in_instance_ = !aqueue_.empty();
      capacity_ = ps_in_instance_ ? spec_.server.capacity : Duration::zero();
    } else {
      capacity_ = spec_.server.capacity;
    }
    trace_.record(now_, TraceKind::kReplenish, "server", capacity_.count());
    next_replenish_ += spec_.server.period;
  }
}

Simulator::PeriodicJob* Simulator::top_periodic() {
  PeriodicJob* best = nullptr;
  int best_prio = std::numeric_limits<int>::min();
  for (std::size_t i = 0; i < ready_periodic_.size(); ++i) {
    if (ready_periodic_[i].empty()) continue;
    PeriodicJob* j = &ready_periodic_[i].front();
    const int prio = spec_.periodic_tasks[i].priority;
    if (best == nullptr || prio > best_prio ||
        (prio == best_prio && j->release < best->release)) {
      best = j;
      best_prio = prio;
    }
  }
  return best;
}

bool Simulator::server_eligible() const {
  if (aqueue_.empty()) return false;
  switch (spec_.server.policy) {
    case model::ServerPolicy::kNone:
      return false;
    case model::ServerPolicy::kBackground:
      return true;
    case model::ServerPolicy::kPolling:
      return ps_in_instance_ && capacity_ > Duration::zero();
    case model::ServerPolicy::kDeferrable:
    case model::ServerPolicy::kSporadic:
      return capacity_ > Duration::zero();
    default:
      return false;
  }
}

TimePoint Simulator::next_static_event() const {
  TimePoint t = spec_.horizon;
  if (next_arrival_ < timed_arrivals_) {
    t = common::min(t, arrivals_[next_arrival_].release);
  }
  for (std::size_t i = 0; i < next_release_.size(); ++i) {
    if (next_release_[i] < spec_.horizon) {
      t = common::min(t, next_release_[i]);
    }
  }
  t = common::min(t, next_replenish_);
  if (!ss_replenishments_.empty()) {
    t = common::min(t, ss_replenishments_.front().at);
  }
  return t;
}

void Simulator::switch_runner(Runner next, const std::string& label) {
  if (runner_ == next && runner_label_ == label) return;
  if (runner_ != Runner::kIdle) {
    trace_.record(now_, TraceKind::kPreempt, runner_label_);
  }
  runner_ = next;
  runner_label_ = label;
  if (runner_ != Runner::kIdle) {
    trace_.record(now_, TraceKind::kResume, runner_label_);
  }
}

void Simulator::complete_aperiodic_head() {
  const AperiodicJob& j = aqueue_.front();
  model::JobOutcome& out = result_.jobs[j.index];
  out.served = true;
  out.start = j.start;
  out.completion = now_;
  aqueue_.pop_front();
  if (spec_.server.policy == model::ServerPolicy::kPolling &&
      aqueue_.empty()) {
    // Pending work exhausted: the Polling Server forfeits its remainder.
    ps_in_instance_ = false;
    capacity_ = Duration::zero();
    trace_.record(now_, TraceKind::kCapacity, "server", 0);
  }
}

model::RunResult Simulator::run() {
  now_ = TimePoint::origin();

  // Pre-create one outcome per aperiodic spec, in arrival order.
  result_.jobs.resize(arrivals_.size());
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    result_.jobs[i].name = arrivals_[i].name;
    result_.jobs[i].release = arrivals_[i].release;
    result_.jobs[i].cost = arrivals_[i].cost;
  }

  for (;;) {
    process_arrivals();
    process_replenishment();

    // Decide who runs. Ties go to the server (construct specs with a
    // distinct server priority to avoid relying on this).
    PeriodicJob* pj = top_periodic();
    const bool srv = server_eligible();
    Runner next = Runner::kIdle;
    std::string label;
    if (srv && (pj == nullptr ||
                spec_.server.priority >=
                    spec_.periodic_tasks[pj->task].priority)) {
      next = Runner::kServer;
      label = arrivals_[aqueue_.front().index].name;
    } else if (pj != nullptr) {
      next = Runner::kPeriodic;
      label = spec_.periodic_tasks[pj->task].name;
    }
    switch_runner(next, label);

    if (spec_.server.policy == model::ServerPolicy::kSporadic) {
      if (next == Runner::kServer && !ss_segment_open_) {
        ss_segment_open_ = true;
        ss_segment_start_ = now_;
      } else if (next != Runner::kServer) {
        ss_close_segment();
      }
    }

    if (next == Runner::kServer) {
      AperiodicJob& head = aqueue_.front();
      if (!head.started) {
        head.started = true;
        head.start = now_;
        ++result_.server_dispatches;
      }
    }

    // Earliest decision point.
    TimePoint t = next_static_event();
    if (next == Runner::kPeriodic) {
      t = common::min(t, now_ + pj->remaining);
    } else if (next == Runner::kServer) {
      Duration slice = aqueue_.front().remaining;
      if (spec_.server.policy != model::ServerPolicy::kBackground) {
        slice = common::min(slice, capacity_);
      }
      t = common::min(t, now_ + slice);
    }
    t = common::min(t, spec_.horizon);

    // Advance and account the service.
    const Duration delta = t - now_;
    if (delta > Duration::zero()) {
      if (next == Runner::kPeriodic) {
        pj->remaining -= delta;
      } else if (next == Runner::kServer) {
        aqueue_.front().remaining -= delta;
        if (spec_.server.policy != model::ServerPolicy::kBackground) {
          capacity_ -= delta;
        }
        if (spec_.server.policy == model::ServerPolicy::kSporadic) {
          ss_segment_consumed_ += delta;
        }
      }
      now_ = t;
    }

    // Completions at the new instant.
    if (next == Runner::kPeriodic && pj->remaining.is_zero()) {
      model::PeriodicOutcome out;
      out.task = spec_.periodic_tasks[pj->task].name;
      out.release = pj->release;
      out.completion = now_;
      out.deadline_missed =
          now_ - pj->release >
          spec_.periodic_tasks[pj->task].effective_deadline();
      result_.periodic_jobs.push_back(out);
      ready_periodic_[pj->task].pop_front();
    } else if (next == Runner::kServer) {
      if (aqueue_.front().remaining.is_zero()) {
        complete_aperiodic_head();
      } else if (spec_.server.policy == model::ServerPolicy::kPolling &&
                 capacity_.is_zero()) {
        // Capacity exhausted mid-job: the theoretical PS suspends the job
        // and resumes it at the next activation (scenario 2's footnote).
        ps_in_instance_ = false;
      }
    }

    if (now_ >= spec_.horizon) break;
  }
  switch_runner(Runner::kIdle, "");
  return std::move(result_);
}

model::RunResult simulate(const model::SystemSpec& spec) {
  return Simulator(spec).run();
}

}  // namespace tsf::sim
