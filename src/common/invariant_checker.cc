#include "common/invariant_checker.h"

#include <sstream>

namespace tsf::common {

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

void InvariantChecker::add_job(std::string_view name,
                               std::int64_t relative_deadline_ticks) {
  deadlines_[std::string(name)] = relative_deadline_ticks;
}

TraceSink* InvariantChecker::core_sink(std::size_t core) {
  feeds_.push_back(std::make_unique<CoreFeed>(this, core));
  return feeds_.back().get();
}

void InvariantChecker::note_shed_ledger(std::size_t core, std::string_view job,
                                        std::int64_t release_ticks,
                                        bool takeover) {
  auto& state = jobs_[Key{core, std::string(job), release_ticks}];
  if (takeover) {
    ++state.ledger_takeovers;
  } else {
    ++state.ledger_sheds;
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
  const auto it = deadlines_.find(who);
  if (it == deadlines_.end()) return;  // not a registered job
  const bool firm = it->second > 0;
  auto& state = jobs_[Key{core, std::string(who), value}];

  std::ostringstream ctx;
  ctx << "core " << core << " job " << who << " release " << value
      << " at t=" << at.ticks() << " ticks";

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
                      ctx.str() + ": shed while in the privileged set");
      }
      if (state.completed) {
        add_violation(kShedAdmittedWork,
                      ctx.str() + ": shed after it already completed");
      }
      ++state.shed_count;
      (void)note;
      break;
    case TraceKind::kComplete:
    case TraceKind::kAbort:
      if (state.shed_count > 0) {
        add_violation(kServeAfterShed,
                      ctx.str() + ": dispatched after being shed");
      }
      if (!state.completed) {
        state.completed = true;
        state.completed_at = at;
        // A firm job finishing outside the privileged set is "sheddable
        // work served" — legal on its own (overload = off/shed have no
        // admission), but forbidden to displace an admitted job's deadline.
        if (kind == TraceKind::kComplete && firm && !state.admitted) {
          sheddable_served_[core].emplace_back(at, std::string(who));
        }
      }
      break;
    default:
      break;
  }
}

std::vector<InvariantChecker::Violation> InvariantChecker::finish() {
  for (const auto& [key, state] : jobs_) {
    const auto& [core, name, release] = key;
    const auto deadline_it = deadlines_.find(name);
    const std::int64_t rel =
        deadline_it == deadlines_.end() ? 0 : deadline_it->second;

    std::ostringstream ctx;
    ctx << "core " << core << " job " << name << " release " << release;

    // Exactly-once ledger: every kShed trace record has one non-takeover
    // ledger entry, and neither side may duplicate.
    if (state.shed_count != state.ledger_sheds) {
      std::ostringstream d;
      d << ctx.str() << ": " << state.shed_count << " shed record(s) vs "
        << state.ledger_sheds << " ledger entr(ies)";
      add_violation(kShedLedgerMismatch, d.str());
    } else if (state.shed_count > 1) {
      std::ostringstream d;
      d << ctx.str() << ": shed " << state.shed_count << " times";
      add_violation(kShedLedgerMismatch, d.str());
    }
    if (state.ledger_takeovers > 1) {
      std::ostringstream d;
      d << ctx.str() << ": " << state.ledger_takeovers
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
    for (const auto& [when, served_name] : served_it->second) {
      if (when > state.last_admit && when <= deadline) {
        std::ostringstream d;
        d << ctx.str() << ": missed deadline t=" << deadline.ticks()
          << " ticks while sheddable job " << served_name << " completed at t="
          << when.ticks() << " ticks";
        add_violation(kAdmittedDeadlineMiss, d.str());
        break;
      }
    }
  }
  return violations_;
}

}  // namespace tsf::common
