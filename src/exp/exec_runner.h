// Lowers a model::SystemSpec onto the RTSJ-style runtime and runs it — the
// "execution" side of the paper's §6 comparison.
//
// Every aperiodic job becomes a ServableAsyncEvent fired by a OneShotTimer
// at its release instant, bound to a ServableAsyncEventHandler whose body
// consumes the job's true cost; every periodic task becomes a
// RealtimeThread. The server is built from the spec's ServerSpec.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/rng.h"
#include "common/time.h"
#include "exp/cross_core.h"
#include "exp/overload.h"
#include "model/run_result.h"
#include "model/spec.h"
#include "rtsj/vm/vm.h"

namespace tsf::core {
class ServableAsyncEvent;
class ServableAsyncEventHandler;
class TaskServer;
struct Request;
}  // namespace tsf::core
namespace tsf::rtsj {
class OneShotTimer;
class RealtimeThread;
}  // namespace tsf::rtsj

namespace tsf::exp {

// The seed of every execution-time jitter stream (ExecOptions::cost_jitter).
inline constexpr std::uint64_t kJitterSeed = 7;

struct ExecOptions {
  // Kernel costs (timer fires, context switches, releases).
  rtsj::vm::OverheadModel kernel;
  // Framework bookkeeping charged by the server itself.
  common::Duration poll_overhead = common::Duration::zero();
  common::Duration dispatch_overhead = common::Duration::zero();
  // Execution-time jitter: each handler's *actual* demand is its declared
  // cost scaled by uniform(1 - jitter, 1 + jitter), deterministically in
  // (kJitterSeed, job order). Models the paper's real-machine effect that a
  // task "overruns its WCET", one of the two interruption causes named in
  // §7. Zero disables it; the declared cost (what the server admits against)
  // is never changed.
  double cost_jitter = 0.0;
  // Overload policy (exp/overload.h). kDover swaps each serving core's
  // pending queue for the D-over discipline at construction; kShed is acted
  // on by the mp layer's OverloadGovernor at epoch boundaries.
  OverloadConfig overload;
  // Burst batching ([run] batch): the server dispatches up to this many
  // pending releases under one Timed section, charging dispatch_overhead
  // once per batch. 1 reproduces per-event dispatch bit-for-bit. Ignored
  // under overload = dover (D-over's admission/LST triage is inherently
  // per-event) and by the sporadic server (per-dispatch replenishment).
  int batch = 1;
};

// One job's actual demand under ExecOptions::cost_jitter: the cost scaled
// by uniform(1 - jitter, 1 + jitter), floored at one tick. Draws from `rng`
// only when jitter is enabled, so callers' RNG streams are unaffected by
// jitterless runs. Shared by the per-core ExecSystems and the fabric-side
// job registration (migratables, ready-pool jobs) so every job sees the
// same jitter model regardless of which path releases it.
common::Duration jittered_cost(common::Rng& rng, const ExecOptions& options,
                               common::Duration cost);

// An ideal machine: every overhead zero. The residual differences from the
// simulation are then purely the policy adaptations (non-resumable
// handlers, first-fit queue).
ExecOptions ideal_execution_options();

// Overheads standing in for the paper's TimeSys RI / rtlinux testbed
// (DESIGN.md §2 documents the substitution; EXPERIMENTS.md the calibration).
ExecOptions paper_execution_options();

model::RunResult run_exec(const model::SystemSpec& spec,
                          const ExecOptions& options = {});

// Lays a run's aperiodic outcomes out in spec order — the one layout of
// ExecSystem::collect and mp::merge_results. Each spec job's slot takes its
// first outcome in `outcomes` order; a job with none gets a never-ran
// placeholder (nominal release, served == false) unless `placeholder`
// returns false for its name. The other outcomes (a re-fired job's later
// releases, jobs no spec slot names) follow in name order, each name's in
// `outcomes` order.
std::vector<model::JobOutcome> in_spec_order(
    const std::vector<model::AperiodicJobSpec>& jobs,
    std::vector<model::JobOutcome> outcomes,
    common::FunctionRef<bool(const std::string&)> placeholder);

// One spec lowered onto one VM, with the run loop left to the caller — the
// building block behind run_exec and the per-core worlds of mp::MultiVm
// (which advances several VMs to shared epoch boundaries). Lifecycle:
//
//     rtsj::vm::VirtualMachine vm(options.kernel);
//     ExecSystem system(vm, spec, options);   // builds server/threads/timers
//     system.start();                         // arms them
//     vm.run_until(...);                      // as many times as you like
//     model::RunResult result = system.collect();   // once, at the end
//
// The ExecSystem must be destroyed before its VM.
//
// As a CoreEndpoint it is also one core's terminus of the cross-core
// channel fabric (multi-core runs): `outbox` is where handlers whose job has
// a `fires` target append their outbound fires, and deliver_fire /
// deliver_migrated are invoked by the fabric at epoch boundaries. With a
// null outbox (uniprocessor run_exec), `fires` resolves locally and fires
// synchronously at handler completion.
//
// Threading contract (backend = threads): appends to `outbox` happen
// mid-epoch on the thread stepping this core, and only this system appends
// to it; mp::MultiVm reads and clears every outbox at the epoch boundary,
// after the barrier. Every CoreEndpoint method, likewise, is only ever
// invoked at an epoch boundary while every core is paused there, so neither
// side needs locks.
class ExecSystem : public CoreEndpoint {
 public:
  ExecSystem(rtsj::vm::VirtualMachine& vm, const model::SystemSpec& spec,
             const ExecOptions& options,
             std::vector<StagedFire>* outbox = nullptr);
  ~ExecSystem() override;
  ExecSystem(const ExecSystem&) = delete;
  ExecSystem& operator=(const ExecSystem&) = delete;

  void start();
  // Ends the VM's trace (VirtualMachine::end_trace), then extracts outcomes
  // (spec order; re-fired jobs append extra outcomes after the spec-ordered
  // block) and moves the VM's timeline out. Destructive; call once after
  // the final run_until.
  model::RunResult collect();

  // --- CoreEndpoint (called by mp::ChannelFabric / the scheduling-policy
  //     engine at epoch boundaries; TSF_BARRIER_ONLY mirrors the interface
  //     contract in exp/cross_core.h) ---
  TSF_BARRIER_ONLY
  bool deliver_fire(const std::string& job) override;
  TSF_BARRIER_ONLY
  void deliver_migrated(const MigratedJob& job) override;
  bool serves_aperiodics() const override;
  std::size_t queue_depth() const override;
  TSF_BARRIER_ONLY
  void deliver_job(const MigratedJob& job,
                   common::TimePoint release) override;
  TSF_BARRIER_ONLY
  void deliver_moved(const StolenJob& moved) override;
  TSF_BARRIER_ONLY
  void stealable_views(std::vector<PendingView>* out) const override;
  TSF_BARRIER_ONLY
  std::optional<StolenJob> steal(std::uint64_t handle) override;
  common::Duration released_cost() const override;
  TSF_BARRIER_ONLY
  bool admit_task(const model::PeriodicTaskSpec& task) override;
  TSF_BARRIER_ONLY
  void sheddable_views(std::vector<PendingView>* out) const override;
  TSF_BARRIER_ONLY
  std::size_t shed(const std::vector<std::uint64_t>& handles) override;

 private:
  // What a steal or a rebalance move needs to rebuild a job elsewhere,
  // beyond its name and declared cost: the rest of what build_job was
  // given, plus whether the work stealer may take a pending release of it
  // (spec affinity == -1; delivered jobs are always unpinned by
  // construction).
  struct JobInfo {
    common::Duration actual = common::Duration::zero();
    std::string fires;
    double value = 0.0;  // scheduling value (0 = declared cost)
    bool stealable = false;
    // Firm deadline relative to release; zero = soft (never shed).
    common::Duration relative_deadline = common::Duration::zero();
  };
  // Every handler this system builds carries its job's JobInfo and its
  // event, so a pending request reaches both through its handler pointer.
  class JobHandler;

  static const JobInfo& info_of(const core::Request& r);
  static PendingView view_of(const core::Request& r);
  static StolenJob to_stolen(const core::Request& r);
  // Builds one periodic task's RealtimeThread (body records
  // PeriodicOutcomes against task.start + k * period).
  rtsj::RealtimeThread* build_task(const model::PeriodicTaskSpec& task);
  // Builds handler + event (+ a release timer at `timer`, if any) for one
  // job and registers the handler under the job's name.
  JobHandler* build_job(const MigratedJob& job, bool stealable,
                        std::optional<common::TimePoint> timer = {});
  // Routes a completed handler's `fires` target: into the outbox when the
  // fabric is attached, synchronously otherwise.
  TSF_WORKER_PHASE
  void fire_target(const std::string& job);

  rtsj::vm::VirtualMachine& vm_;
  model::SystemSpec spec_;
  model::RunResult result_;
  std::vector<StagedFire>* outbox_ = nullptr;
  std::unique_ptr<core::TaskServer> server_;
  std::vector<std::unique_ptr<rtsj::RealtimeThread>> threads_;
  std::vector<std::unique_ptr<JobHandler>> handlers_;
  std::vector<std::unique_ptr<core::ServableAsyncEvent>> events_;
  std::vector<std::unique_ptr<rtsj::OneShotTimer>> timers_;
  std::map<std::string, JobHandler*> jobs_;
  // Declared cost released here by deliver_moved: work another core had
  // already been offered, kept out of released_cost().
  common::Duration moved_in_cost_ = common::Duration::zero();
};

}  // namespace tsf::exp
