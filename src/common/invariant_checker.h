// Machine-checked forbidden-behavior invariants for the overload subsystem.
//
// The checker is a TraceSink: feed it the per-core record streams (live via
// core_sink(), or by replaying a materialized timeline after the run) plus
// the shed/takeover ledger, then call finish(). A conforming run produces
// zero violations BY CONSTRUCTION; the mutation tests in
// tests/common/invariant_checker_test.cc seed deliberately broken streams to
// prove the checker is not vacuously green. The catalog of checked behaviors
// lives in FORBIDDEN_BEHAVIOR_CATALOG.md at the repo root.
//
// Conventions the checker relies on (established by core/task_server and
// core/dover_queue):
//   kAdmit / kDemote / kShed   — who = job name, value = release ticks
//   kComplete / kAbort         — who = job name, value = release ticks
// Records whose name was never registered via add_job (periodic tasks,
// server fibers, annotations) are ignored by the firm-job checks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/trace.h"

namespace tsf::common {

class InvariantChecker : public TraceSink {
 public:
  InvariantChecker();
  ~InvariantChecker() override;  // CoreFeed is private to the .cc

  struct Violation {
    std::string name;    // one of the k* constants below
    std::string detail;  // human-readable context (core, job, instants)
  };

  // Violation names (stable identifiers; the mutation tests match these).
  static constexpr const char* kServeAfterShed = "serve-after-shed";
  static constexpr const char* kShedAdmittedWork = "shed-admitted-work";
  static constexpr const char* kShedLedgerMismatch = "shed-ledger-mismatch";
  static constexpr const char* kAdmittedDeadlineMiss =
      "admitted-deadline-miss-while-sheddable-served";

  // Registers a firm job: relative_deadline_ticks > 0 makes the job firm
  // (deadline = release + relative deadline); 0 registers a best-effort job
  // (tracked for serve-after-shed, exempt from the deadline-miss check).
  void add_job(std::string_view name, std::int64_t relative_deadline_ticks);

  // Tags subsequent record() calls with this core (default 0).
  void set_core(std::size_t core) { core_ = core; }

  // A sink view that feeds this checker with a fixed core tag regardless of
  // set_core — attach one per core for live (streaming) checking. Owned by
  // the checker; valid for its lifetime.
  TraceSink* core_sink(std::size_t core);

  // One shed (or takeover-admission) ledger entry. Every kShed trace record
  // must be matched by exactly one non-takeover ledger entry and vice versa.
  void note_shed_ledger(std::size_t core, std::string_view job,
                        std::int64_t release_ticks, bool takeover);

  // TraceSink. Records must arrive in non-decreasing time order per core;
  // traces are append-only, so each is checked once, as it arrives.
  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override;

  // End-of-stream checks (ledger reconciliation + admitted-deadline-miss
  // scan) and every violation collected while streaming.
  std::vector<Violation> finish();

 private:
  struct CoreFeed;
  // Per (core, job, release) lifecycle state.
  struct JobState {
    bool admitted = false;       // currently in the privileged set
    bool ever_admitted = false;
    TimePoint last_admit;
    std::size_t shed_count = 0;  // kShed trace records seen
    bool completed = false;
    TimePoint completed_at;
    std::size_t ledger_sheds = 0;
    std::size_t ledger_takeovers = 0;
  };
  using Key = std::tuple<std::size_t, std::string, std::int64_t>;

  void add_violation(std::string_view name, std::string detail);
  void record_on_core(std::size_t core, TimePoint at, TraceKind kind,
                      std::string_view who, std::int64_t value,
                      std::string_view note);

  std::size_t core_ = 0;
  std::map<std::string, std::int64_t, std::less<>> deadlines_;
  std::map<Key, JobState> jobs_;
  // Completions of firm jobs that were NOT admitted at completion time —
  // "sheddable work served" — per core, in stream order.
  std::map<std::size_t, std::vector<std::pair<TimePoint, std::string>>>
      sheddable_served_;
  std::vector<Violation> violations_;
  std::vector<std::unique_ptr<CoreFeed>> feeds_;
};

}  // namespace tsf::common
