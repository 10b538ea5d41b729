// Utilization-based admission control at the epoch boundaries — the
// `[run] overload = shed` policy.
//
// The governor runs last in the MultiVm boundary step, after the fabric
// drain, the scheduling-policy engine, the load meter's sample and the
// rebalancer, while every per-core VM is paused — so its decisions depend
// only on (specs, quantum), never on host scheduling. Per epoch it reads
// each core's measured utilization from the shared mp::LoadMeter over a
// sliding window of `period` (the measurement the rebalancer reads over its
// own period); when a core's measured utilization exceeds `threshold`, the
// pass drops pending *sheddable* work — firm (deadline-carrying), released
// before the boundary, not being served — in lowest-value-density-first
// order until the overshoot's worth of declared cost is gone. It reads the
// core's backlog as one-pass views (CoreEndpoint::sheddable_views),
// heap-selects only the prefix it sheds, and drops that set by handle in
// one pass over the queue through CoreEndpoint::shed, which records each
// shed outcome, kShed trace record and exactly-once ledger entry the
// invariant checker reconciles (FORBIDDEN_BEHAVIOR_CATALOG.md), in
// decision order.
//
// Passes are rate-limited to one per `period`, sharing the knob with the
// measurement window — the spec's `overload_period`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/invariant_checker.h"
#include "common/time.h"
#include "exp/cross_core.h"
#include "exp/overload.h"
#include "model/spec.h"

namespace tsf::mp {

class ChannelFabric;
class LoadMeter;
struct MpRunResult;

// Replays a finished run through the forbidden-behavior checker
// (common/invariant_checker.h): per-core timelines stream in core order,
// the merged shed/takeover ledger reconciles against the kShed records.
// Empty result == conforming run; every passing storm run must be. Works
// for ANY overload mode, including off (where it degenerates to "nothing
// was shed and no ledger exists").
std::vector<common::InvariantChecker::Violation> check_overload_invariants(
    const model::SystemSpec& spec, const MpRunResult& run);

class OverloadGovernor {
 public:
  // `fabric` and `meter` must outlive the governor. Only mode kShed needs a
  // governor (kDover sheds inside the per-core queues).
  OverloadGovernor(exp::OverloadConfig config, ChannelFabric& fabric,
                   LoadMeter& meter);

  // The boundary hook: read the meter, then (rate-limited) shed overshoot.
  // Invoked last at every epoch boundary, while every VM is paused there.
  TSF_BARRIER_ONLY
  void on_epoch(common::TimePoint boundary);

  // --- results ---
  std::uint64_t passes() const { return passes_; }
  const std::vector<double>& measured_utilization() const {
    return measured_;
  }

 private:
  bool shed_pass();

  exp::OverloadConfig config_;
  ChannelFabric& fabric_;
  LoadMeter& meter_;
  std::vector<double> measured_;
  // shed_pass scratch, kept so a pass reuses the last one's capacity: one
  // core's candidates, the heap of their indexes and the handles chosen.
  std::vector<exp::PendingView> candidates_;
  std::vector<std::size_t> heap_;
  std::vector<std::uint64_t> handles_;
  common::TimePoint last_pass_ = common::TimePoint::origin();
  std::uint64_t passes_ = 0;
};

}  // namespace tsf::mp
