// MultiVm — the multi-core epoch driver.
//
// Partitioned scheduling has no cross-core preemption, so a multi-core
// machine is modelled as one deterministic rtsj::vm::VirtualMachine per
// core, each hosting one exp::ExecSystem (the same lowering run_exec uses).
// MultiVm drives every core to the same epoch boundaries (multiples of
// `quantum`) and runs one boundary step there — the only instant at which
// cross-core effects enter a core. A handler's cross-core fire is appended
// mid-epoch to its core's outbox, a plain vector only that core's world
// writes; the boundary step posts every outbox into the ChannelFabric in
// core order and clears it. Each outbox is in post order, so the fabric
// sees the lock-step order on either stepper, and the boundary itself (the
// threads stepper's barrier) is the only synchronization the outboxes need.
//
// Within an epoch each core is a closed deterministic world, so both
// steppers (ExecBackend) produce bit-identical traces, outcomes and channel
// ledgers, and a run of N single-core specs equals N independent run_exec
// calls (tests/mp/multi_vm_test.cc). The threads stepper adds what the
// oracle cannot: wall-clock measurement ("threads.*" metrics).
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/metrics_registry.h"
#include "common/time.h"
#include "common/trace_sink.h"
#include "exp/exec_runner.h"
#include "model/run_result.h"
#include "model/spec.h"
#include "rtsj/vm/vm.h"

namespace tsf::mp {

class ChannelFabric;
class LoadMeter;
class OverloadGovernor;
class Rebalancer;
class SchedPolicyEngine;

// Which stepper advances the per-core VMs between epoch boundaries (spec
// key `[run] backend`):
//  * kLockstep — one driver thread runs every core's VM in core order. The
//    oracle: host scheduling never reaches the results.
//  * kThreads — one OS worker per core, pinned where the platform allows,
//    runs its VM concurrently; the workers meet at a std::barrier whose
//    completion function runs the boundary step while they are parked.
enum class ExecBackend { kLockstep, kThreads };

std::optional<ExecBackend> parse_exec_backend(std::string_view name);

// The optional boundary stages, run in this order after the fabric drain:
// the scheduling policy (pool dispatch under global, the steal pass under
// semi), then the load meter's one sample, then the rebalancer and the
// overload governor that read it. Shedding goes last: it is the final
// resort once migration had its chance to place the backlog. A rebalancer
// or governor needs the meter; every stage must outlive the MultiVm.
struct BoundaryStages {
  SchedPolicyEngine* engine = nullptr;
  LoadMeter* meter = nullptr;
  Rebalancer* rebalancer = nullptr;
  OverloadGovernor* governor = nullptr;
};

class MultiVm {
 public:
  // One VM + ExecSystem per spec; every spec needs a finite horizon. Each
  // ExecSystem is connected to `fabric` as core k's endpoint, and every job
  // in the per-core specs is bound into the fabric's routing table. The
  // fabric must outlive the MultiVm.
  MultiVm(std::vector<model::SystemSpec> per_core_specs,
          const exp::ExecOptions& options, ChannelFabric& fabric,
          BoundaryStages stages = {});
  ~MultiVm();
  MultiVm(const MultiVm&) = delete;
  MultiVm& operator=(const MultiVm&) = delete;

  // Streams core `core`'s trace into `sink` as well as its in-memory
  // timeline (the VM's emission is replaced with an owned tee over both).
  // Call before run(); the sink must outlive the MultiVm. One external sink
  // per core — a later call for the same core supersedes the earlier.
  void attach_trace_sink(std::size_t core, common::TraceSink* sink);

  // Surfaces runtime counters during run(): "mp.epochs",
  // "mp.epoch.host_seconds", "mp.fabric.deliveries", "mp.fabric.drain_size",
  // and under kThreads the gauges "threads.wall_seconds" and
  // "threads.workers_pinned". Only touched from the boundary step and after
  // the stepper finishes — never concurrently. Must outlive the run.
  void set_metrics(common::MetricsRegistry* metrics) { metrics_ = metrics; }

  // One-shot: starts every core's world on the calling thread (an error
  // there propagates straight out), then steps every core to `horizon` in
  // epochs of `quantum` (the last one clipped) with the boundary step after
  // each. Under kThreads the first error a core's world raises stops every
  // worker after the current epoch and is rethrown once all have unwound;
  // under kLockstep it propagates straight out. Returns the wall-clock
  // seconds spent starting and stepping.
  double run(common::TimePoint horizon,
             common::Duration quantum = common::Duration::time_units(1),
             ExecBackend backend = ExecBackend::kLockstep);

  // Per-core results, in core order. Destructive; call once after run().
  std::vector<model::RunResult> collect();

 private:
  void step_lockstep();
  // Returns how many workers the platform pinned (none on hosts without
  // pthread_setaffinity_np).
  std::size_t step_threads();
  // The boundary step of both steppers, run while every VM is paused: at
  // the horizon, every VM's end_trace; then outbox posting, fabric drain,
  // the BoundaryStages, epoch metrics.
  TSF_BARRIER_ONLY
  void on_boundary() noexcept;

  // Core k's world appends to outboxes_[k] mid-epoch; only the boundary
  // step reads and clears them. Sized once, before the worlds take their
  // pointers, and declared first so it outlives them.
  std::vector<std::vector<exp::StagedFire>> outboxes_;
  // Destruction order matters: systems_ (fibers, timers) must go before the
  // VMs they run on, so vms_ is declared first.
  std::vector<std::unique_ptr<rtsj::vm::VirtualMachine>> vms_;
  std::vector<std::unique_ptr<exp::ExecSystem>> systems_;
  ChannelFabric& fabric_;
  BoundaryStages stages_;
  common::MetricsRegistry* metrics_ = nullptr;
  std::vector<std::unique_ptr<common::TeeSink>> tees_;

  // Epoch cursor of the boundary step; threads-stepper workers track the
  // identical sequence locally (same arithmetic, same inputs).
  common::TimePoint now_ = common::TimePoint::origin();
  common::TimePoint horizon_ = common::TimePoint::origin();
  common::Duration quantum_ = common::Duration::time_units(1);
  std::chrono::steady_clock::time_point epoch_begin_;
  bool ran_ = false;
};

}  // namespace tsf::mp
