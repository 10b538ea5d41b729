// The result of running one SystemSpec on one engine.
#pragma once

#include <cstdint>
#include <vector>

#include "common/trace.h"
#include "model/spec.h"

namespace tsf::model {

// One overload decision that removed (or took over) pending work — the
// exactly-once ledger the invariant checker reconciles against the kShed
// trace records. Recorded core-locally by the task server; mp::merge_results
// concatenates the cores' events in core order and stamps the deciding core.
struct ShedEvent {
  enum class Kind {
    kShed,      // job dropped, will never be dispatched
    kTakeover,  // D-over LST takeover: job admitted by demoting the
                // privileged set
  };
  Kind kind = Kind::kShed;
  std::string job;
  TimePoint release;
  TimePoint at;
  std::string reason;  // "overload" | "lst" | "missed-lst" | "takeover"
  std::size_t core = 0;  // filled in by merge_results
};

struct RunResult {
  std::vector<JobOutcome> jobs;
  std::vector<PeriodicOutcome> periodic_jobs;
  common::Timeline timeline;
  std::vector<ShedEvent> shed_events;
  // Engine bookkeeping, for the micro benches and sanity tests.
  std::uint64_t server_activations = 0;
  std::uint64_t server_dispatches = 0;
};

}  // namespace tsf::model
