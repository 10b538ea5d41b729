#include "common/invariant_checker.h"

#include <algorithm>
#include <sstream>

namespace tsf::common {

namespace {

// "core C job J release R": the head of every violation's text.
std::string job_context(std::size_t core, std::string_view job,
                        std::int64_t release) {
  std::ostringstream out;
  out << "core " << core << " job " << job << " release " << release;
  return out.str();
}

}  // namespace

InvariantChecker::InvariantChecker() = default;
InvariantChecker::~InvariantChecker() = default;

struct InvariantChecker::CoreFeed : TraceSink {
  CoreFeed(InvariantChecker* owner, std::size_t core)
      : owner_(owner), core_(core) {}

  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value, std::string_view note) override {
    owner_->record_on_core(core_, at, kind, who, value, note);
  }

  InvariantChecker* owner_;
  std::size_t core_;
};

std::size_t InvariantChecker::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = static_cast<std::uint64_t>(k.release);
  h = (h ^ k.job) * 0x9E3779B97F4A7C15ULL;
  h = (h ^ k.core) * 0xC2B2AE3D27D4EB4FULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

std::size_t InvariantChecker::job_id(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  ids_.emplace(std::string(name), jobs_.size());
  jobs_.push_back(Job{std::string(name)});
  return jobs_.size() - 1;
}

InvariantChecker::JobState& InvariantChecker::state_of(std::size_t core,
                                                       std::size_t job,
                                                       std::int64_t release) {
  const Key key{core, job, release};
  const auto [it, inserted] = state_index_.emplace(key, states_.size());
  if (inserted) states_.emplace_back(key, JobState{});
  return states_[it->second].second;
}

void InvariantChecker::add_job(std::string_view name,
                               std::int64_t relative_deadline_ticks) {
  Job& job = jobs_[job_id(name)];
  job.registered = true;
  job.relative_deadline_ticks = relative_deadline_ticks;
}

TraceSink* InvariantChecker::core_sink(std::size_t core) {
  feeds_.push_back(std::make_unique<CoreFeed>(this, core));
  return feeds_.back().get();
}

void InvariantChecker::note_shed_ledger(std::size_t core, std::string_view job,
                                        std::int64_t release_ticks,
                                        bool takeover) {
  JobState& entry = state_of(core, job_id(job), release_ticks);
  if (takeover) {
    ++entry.ledger_takeovers;
  } else {
    ++entry.ledger_sheds;
  }
}

void InvariantChecker::record(TimePoint at, TraceKind kind,
                              std::string_view who, std::int64_t value,
                              std::string_view note) {
  record_on_core(core_, at, kind, who, value, note);
}

void InvariantChecker::add_violation(std::string_view name,
                                     std::string detail) {
  violations_.push_back(Violation{std::string(name), std::move(detail)});
}

void InvariantChecker::record_on_core(std::size_t core, TimePoint at,
                                      TraceKind kind, std::string_view who,
                                      std::int64_t value,
                                      std::string_view note) {
  switch (kind) {
    case TraceKind::kAdmit:
    case TraceKind::kDemote:
    case TraceKind::kShed:
    case TraceKind::kComplete:
    case TraceKind::kAbort:
      break;
    default:
      return;
  }
  const auto it = ids_.find(who);
  if (it == ids_.end() || !jobs_[it->second].registered) return;
  const std::size_t id = it->second;
  const bool firm = jobs_[id].relative_deadline_ticks > 0;
  JobState& state = state_of(core, id, value);

  // Almost every check passes, so the text is built only for a violation.
  const auto ctx = [&] {
    std::ostringstream out;
    out << job_context(core, who, value) << " at t=" << at.ticks()
        << " ticks";
    return out.str();
  };

  switch (kind) {
    case TraceKind::kAdmit:
      state.admitted = true;
      state.ever_admitted = true;
      state.last_admit = at;
      break;
    case TraceKind::kDemote:
      state.admitted = false;
      break;
    case TraceKind::kShed:
      if (state.admitted) {
        add_violation(kShedAdmittedWork,
                      ctx() + ": shed while in the privileged set");
      }
      if (state.completed) {
        add_violation(kShedAdmittedWork,
                      ctx() + ": shed after it already completed");
      }
      ++state.shed_count;
      (void)note;
      break;
    case TraceKind::kComplete:
    case TraceKind::kAbort:
      if (state.shed_count > 0) {
        add_violation(kServeAfterShed,
                      ctx() + ": dispatched after being shed");
      }
      if (!state.completed) {
        state.completed = true;
        state.completed_at = at;
        // A firm job finishing outside the privileged set is "sheddable
        // work served" — legal on its own (overload = off/shed have no
        // admission), but forbidden to displace an admitted job's deadline.
        if (kind == TraceKind::kComplete && firm && !state.admitted) {
          sheddable_served_[core].emplace_back(at, id);
        }
      }
      break;
    default:
      break;
  }
}

std::vector<InvariantChecker::Violation> InvariantChecker::finish() {
  std::vector<std::size_t> order(states_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    const Key& x = states_[a].first;
    const Key& y = states_[b].first;
    if (x.core != y.core) return x.core < y.core;
    if (x.job != y.job) return jobs_[x.job].name < jobs_[y.job].name;
    return x.release < y.release;
  });
  for (const std::size_t i : order) {
    const auto& [key, state] = states_[i];
    const auto& [core, job, release] = key;
    const std::string& name = jobs_[job].name;
    const std::int64_t rel = jobs_[job].relative_deadline_ticks;

    // Exactly-once ledger: every kShed trace record has one non-takeover
    // ledger entry, and neither side may duplicate.
    if (state.shed_count != state.ledger_sheds) {
      std::ostringstream d;
      d << job_context(core, name, release) << ": " << state.shed_count
        << " shed record(s) vs " << state.ledger_sheds << " ledger entr(ies)";
      add_violation(kShedLedgerMismatch, d.str());
    } else if (state.shed_count > 1) {
      std::ostringstream d;
      d << job_context(core, name, release) << ": shed " << state.shed_count
        << " times";
      add_violation(kShedLedgerMismatch, d.str());
    }
    if (state.ledger_takeovers > 1) {
      std::ostringstream d;
      d << job_context(core, name, release) << ": " << state.ledger_takeovers
        << " takeover ledger entries";
      add_violation(kShedLedgerMismatch, d.str());
    }

    // Admitted deadline miss while sheddable work was served: the job ended
    // the run in the privileged set (never demoted away), its deadline
    // passed unmet, and some firm non-admitted job completed on the same
    // core between the admission and the deadline.
    if (!state.ever_admitted || !state.admitted || rel <= 0) continue;
    const TimePoint deadline =
        TimePoint::at_ticks(release + rel);
    const bool met = state.completed && state.completed_at <= deadline;
    if (met) continue;
    const auto served_it = sheddable_served_.find(core);
    if (served_it == sheddable_served_.end()) continue;
    for (const auto& [when, served] : served_it->second) {
      if (when > state.last_admit && when <= deadline) {
        std::ostringstream d;
        d << job_context(core, name, release)
          << ": missed deadline t=" << deadline.ticks()
          << " ticks while sheddable job " << jobs_[served].name
          << " completed at t=" << when.ticks() << " ticks";
        add_violation(kAdmittedDeadlineMiss, d.str());
        break;
      }
    }
  }
  return violations_;
}

}  // namespace tsf::common
