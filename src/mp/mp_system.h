// Lowering a multi-core SystemSpec onto the partitioned runtime.
//
// The flow mirrors the uniprocessor experiment harness, with one extra
// stage: partition → split into per-core uniprocessor specs → run each core
// on the chosen engine (the theoretical simulator, or the RTSJ-style VM via
// MultiVm on either stepper) → merge the per-core results back into one
// RunResult whose timeline is namespaced per core ("c0/tau1", "c2/server").
//
// Feasibility follows the same shape: partition, then per-core response-time
// analysis (analysis/partitioned.h), folded with the packer's rejection
// list into a single system-level verdict.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/partitioned.h"
#include "common/metrics_registry.h"
#include "common/time.h"
#include "common/trace_sink.h"
#include "exp/cross_core.h"
#include "exp/exec_runner.h"
#include "model/run_result.h"
#include "model/spec.h"
#include "mp/multi_vm.h"
#include "mp/partition.h"
#include "mp/rebalance.h"
#include "mp/sched_policy.h"

namespace tsf::mp {

// Which engine mp::run drives per core:
//  * kSim — one sim::Simulator per core (theoretical policies, resumable
//    service, no fabric: the static partition is final).
//  * kExec — one RTSJ-style VM per core (implemented policies, lock-step or
//    threaded time, channel fabric, policies/rebalance/overload live here).
enum class RunEngine { kSim, kExec };

struct MpRunOptions {
  // Which per-core engine runs the partition (see RunEngine).
  RunEngine engine = RunEngine::kExec;
  PackingStrategy strategy = PackingStrategy::kFirstFitDecreasing;
  // How jobs move (or don't) between cores at run time (exec path only;
  // the simulator has no fabric and always runs the static partition).
  SchedPolicy policy = SchedPolicy::kPartitioned;
  // Execution-engine options (ignored by the simulator path).
  exp::ExecOptions exec;
  // MultiVm's stepper (exec path only): the lock-step oracle or the
  // real-threads measurement backend.
  ExecBackend backend = ExecBackend::kLockstep;
  // Epoch length of the MultiVm (execution path only).
  common::Duration quantum = common::Duration::time_units(1);
  // Online load rebalancing at the epoch boundaries (exec path only; the
  // simulator has no fabric and always runs the static partition).
  RebalanceConfig rebalance;
  // The overload policy rides in exec.overload (exp/overload.h): kDover is
  // lowered into each serving core's pending queue by the ExecSystem; kShed
  // constructs an OverloadGovernor that runs last at every boundary.
  // Optional streaming trace sinks, one per core (exec path only). Entry k,
  // when non-null, receives core k's full record stream alongside the
  // materialized per-core timeline. May be shorter than the core count.
  std::vector<common::TraceSink*> core_trace_sinks;
  // Optional runtime-counter registry (exec path only): epoch, fabric,
  // policy and rebalance counters plus per-core utilization gauges are
  // recorded here during and after the run.
  common::MetricsRegistry* metrics = nullptr;
};

// Per-core uniprocessor specs for a partition of `spec`: core k gets the
// tasks and jobs assigned to it, a copy of the server iff the partition
// placed a replica there, spec.horizon, and cores == 1. Job affinities are
// preserved from the parent spec (affinity == -1 marks a job the
// semi-partitioned stealer may move). Rejected tasks are in no core — they
// simply don't run, exactly like an offline admission refusal. Migratable
// jobs (`migrate`) are in no core either: on the exec path the channel
// fabric releases them onto the least-loaded core at run time; the
// simulator path (which has no fabric) leaves them unserved. Under the
// global policy every unpinned, untriggered job additionally bypasses the
// split — it belongs to the shared ready pool, not to any core.
std::vector<model::SystemSpec> split_spec(
    const model::SystemSpec& spec, const Partition& partition,
    SchedPolicy policy = SchedPolicy::kPartitioned);

// Merges per-core results: aperiodic outcomes concatenated in core order
// and laid out in spec order (exp::in_spec_order; a job no core booked
// gets a never-ran placeholder), periodic outcomes sorted by (release,
// task), shed/takeover events concatenated in core order with the deciding
// core stamped, counters summed. The timelines are interleaved in one k-way
// pass by (instant, core), with "c<k>/" entity prefixes: simultaneous
// records keep core order, then each core's own order. Each per-core
// timeline must be in time order, as every engine emits it; one that is not
// panics, naming the core and the record.
//
// Nothing is deduplicated: a job that moves at run time (steal, pool
// dispatch, rebalance) is booked only by the core it ends on — the core it
// left books neither an outcome nor a placeholder for that release.
model::RunResult merge_results(const model::SystemSpec& spec,
                               const Partition& partition,
                               const std::vector<model::RunResult>& per_core);

struct MpFeasibility {
  Partition partition;
  analysis::PartitionedFeasibility per_core;
  // System verdict: every item placed AND every core's RTA passes.
  bool feasible = false;
};

// Partition + per-core RTA in one step.
MpFeasibility analyze(
    const model::SystemSpec& spec,
    PackingStrategy strategy = PackingStrategy::kFirstFitDecreasing);

struct MpRunResult {
  Partition partition;
  std::vector<model::RunResult> per_core;  // core order
  model::RunResult merged;
  // Cross-core channel traffic (exec path only): every terminal message
  // fate, in delivery order — remote fires and migrations, plus the
  // scheduling policy's pool dispatches (kPool) and steals (kSteal) and the
  // rebalancer's moves and admissions (kRebalance) — and how many messages
  // (and undispatched pool jobs) were still in flight at the horizon. Feed
  // to exp::compute_channel_metrics for the latency distribution. Sheds
  // and takeovers are not channel traffic; they are in merged.shed_events.
  std::vector<exp::ChannelDelivery> channel_deliveries;
  std::size_t channel_in_flight = 0;
  // Scheduling-policy counters (zero under the partitioned baseline).
  std::uint64_t pool_dispatches = 0;
  std::uint64_t steals = 0;
  // Online-rebalancing results (zero / empty when rebalance = off). The
  // migrations and admissions also appear, exactly once each, as
  // kRebalance records in channel_deliveries.
  std::uint64_t rebalance_passes = 0;
  std::uint64_t rebalance_migrations = 0;
  std::uint64_t rebalance_admissions = 0;
  std::size_t rebalance_still_rejected = 0;
  // The last measured per-core utilization sample — the post-rebalance
  // load picture.
  std::vector<double> rebalance_utilization;
  // Overload-policy results (zero / empty when overload = off). `sheds`
  // and `takeovers` count merged.shed_events by kind: every shed and
  // takeover appears there exactly once (deciding core filled in) — the
  // exactly-once ledger the invariant checker reconciles.
  std::uint64_t overload_passes = 0;
  std::uint64_t sheds = 0;
  std::uint64_t takeovers = 0;
  // The governor's last measured per-core utilization sample (mode shed).
  std::vector<double> overload_utilization;
};

// THE entry point: partition `spec` (or take the caller's partition), run
// every core on options.engine, merge. The second form lets a driver pack
// once and reuse the assignment across analysis, sim and exec.
MpRunResult run(const model::SystemSpec& spec,
                const MpRunOptions& options = {});
MpRunResult run(const model::SystemSpec& spec, Partition partition,
                const MpRunOptions& options = {});

}  // namespace tsf::mp
