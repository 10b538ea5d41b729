// TaskServer — the abstract server of the paper's framework (§3).
//
// "This abstract class represents a task server. It implements Schedulable
// and extends Scheduler. It is a schedulable object since it is in fact a
// periodic real-time thread and it is a scheduler since it has to schedule
// SAEHs. It has a method servableEventReleased() which ... is called by the
// AE fire() method."
//
// Concrete policies (PollingTaskServer, DeferrableTaskServer, and the
// extension servers) differ in *when* they serve and *how* capacity is
// replenished; the shared machinery here covers the pending queue, the
// Timed-bounded dispatch with wall-clock capacity accounting, per-request
// outcome records, and the feasibility interface (including the paper's
// getInterference() proposal).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "core/dover_queue.h"
#include "core/pending_queue.h"
#include "core/servable_async_event_handler.h"
#include "core/task_server_parameters.h"
#include "model/run_result.h"
#include "model/spec.h"
#include "rtsj/schedulable.h"
#include "rtsj/vm/vm.h"

namespace tsf::core {

class TaskServer : public rtsj::Schedulable, public rtsj::Scheduler {
 public:
  TaskServer(rtsj::vm::VirtualMachine& machine, TaskServerParameters params);
  ~TaskServer() override = default;

  // Begins the server's activity (thread / timers). Call before run_until.
  virtual void start() = 0;

  // Called by ServableAsyncEvent::fire() for each bound servable handler.
  // Release is the hot path: it runs at every event fire, inside the fiber
  // quantum, and must neither block nor allocate past the reserve() mark.
  // (Annotations merge across overloads of the same name.)
  TSF_WORKER_PHASE TSF_REALTIME
  void servable_event_released(ServableAsyncEventHandler* handler);
  // Same, but the request carries an explicit release instant instead of
  // the VM clock — the delivery half of cross-core pool dispatch / work
  // stealing, where the job's true release happened elsewhere (or earlier).
  void servable_event_released(ServableAsyncEventHandler* handler,
                               rtsj::AbsoluteTime release);

  // Removes every pending request `pred` accepts, appending them to `out`
  // in queue order — the one way work leaves this server at an epoch
  // boundary: the work stealer's and the rebalancer's moves (the caller
  // re-creates the job on its new core) and the governor's sheds
  // (shed_pending). Only queued (never running) requests can be taken.
  //
  // Requests whose release coincides with the current VM instant are never
  // taken: at a lock-step epoch boundary such a request was bound into the
  // queue by this very boundary's fabric drain (or a timer firing at it),
  // and the server's own wake-up for it is still in flight — taking it
  // mid-bind would leave the home core reacting to a request that no
  // longer exists. Only strictly earlier releases can be taken.
  TSF_BARRIER_ONLY
  void take_pending(const TakeFn& pred, std::vector<Request>* out);

  // Read-only walk over the pending queue (same reach as take_pending,
  // including requests the mid-bind rule would reject) — the boundary
  // passes view pending work through this before deciding what to remove.
  void visit_pending(const VisitFn& fn) const { queue_->visit(fn); }

  // Swaps the pending queue for the D-over overload discipline
  // (core/dover_queue.h): privileged-set admission on every release plus the
  // LST takeover rule, with kAdmit/kDemote/kShed trace records and the
  // exactly-once shed ledger emitted from here. `meta` maps a request to its
  // scheduling value and firm deadline. Call before start() and before any
  // release — the queue must still be empty.
  struct DOverParams {
    double importance_ratio = 1.0;  // k = dmax/dmin of value densities
    std::function<DOverQueue::JobMeta(const Request&)> meta;
  };
  void enable_dover(DOverParams dover);
  bool dover_enabled() const { return dover_enabled_; }

  // The utilization governor's shed hook (overload = shed): removes the
  // pending requests whose seqs `handles` lists in one take_pending pass,
  // then records each — outcome marked shed, kShed trace record and ledger
  // event, reason "overload" — in the order `handles` lists them (the
  // governor's decision order). Handles no longer pending are skipped.
  // Returns the number shed.
  TSF_BARRIER_ONLY
  std::size_t shed_pending(const std::vector<std::uint64_t>& handles);

  // Every overload decision taken on this server, in decision order — the
  // exactly-once ledger half the invariant checker reconciles.
  const std::vector<model::ShedEvent>& shed_events() const {
    return shed_events_;
  }
  std::uint64_t shed_count() const { return shed_count_; }

  const TaskServerParameters& params() const { return params_; }
  rtsj::RelativeTime remaining_capacity() const { return remaining_; }
  std::size_t pending_count() const { return queue_->size(); }
  // Cumulative declared cost of every request released so far — the load
  // signal the online rebalancer (mp/rebalance.h) samples at epoch
  // boundaries to measure this core's offered aperiodic utilization.
  rtsj::RelativeTime released_cost() const { return released_cost_; }

  // --- statistics / experiment extraction ---
  std::uint64_t released_count() const { return released_; }
  std::uint64_t served_count() const { return served_; }
  std::uint64_t interrupted_count() const { return interrupted_; }
  std::uint64_t activation_count() const { return activations_; }
  std::uint64_t dispatch_count() const { return dispatches_; }
  // Outcomes of all completed (served or interrupted) requests so far.
  const std::vector<model::JobOutcome>& outcomes() const { return outcomes_; }
  // outcomes() plus everything still pending, marked unserved. Destructive
  // on the queue; call once, after the run.
  std::vector<model::JobOutcome> final_outcomes();

  // --- Schedulable ---
  const std::string& name() const override { return params_.name(); }
  int priority() const override { return params_.priority(); }
  const rtsj::ReleaseParameters* release_parameters() const override {
    return &params_;
  }
  rtsj::RelativeTime deadline() const override { return params_.period(); }
  rtsj::RelativeTime cost() const override { return params_.capacity(); }
  // Default: periodic-task interference ceil(w/T)*C (exact for the Polling
  // Server, which "can be included in the feasibility analysis like any
  // periodic task", §2.1). Deferred policies override with their modified
  // bound — the point of the paper's getInterference() proposal.
  rtsj::RelativeTime interference(rtsj::RelativeTime window) const override;
  double utilization() const override {
    return params_.capacity().to_tu() / params_.period().to_tu();
  }

  // --- Scheduler --- (the server schedules its SAEHs; the queue is the
  // policy, so the server-as-scheduler is feasible iff its own analysis
  // holds, delegated to the owning PriorityScheduler in practice.)
  bool is_feasible() const override { return true; }

  rtsj::vm::VirtualMachine& machine() { return vm_; }
  const rtsj::vm::VirtualMachine& machine() const { return vm_; }

 public:
  // Pre-sizes the outcome ledgers and the batch buffer (up to the batch
  // limit) for an expected request count so the steady-state serve loop
  // never grows a vector mid-run (the zero-alloc contract the interposer
  // test asserts). Optional; vectors still grow past the reservation as
  // usual.
  void reserve(std::size_t expected_requests);

 protected:
  struct DispatchResult {
    rtsj::RelativeTime elapsed = rtsj::RelativeTime::zero();
    bool served = false;
  };

  // Pops up to params_.batch_limit() requests into batch_: the head via
  // `head_fits` (the policy's full single-request rule), followers via
  // `follow_fits`, which sees the batch's cumulative declared cost so the
  // group as a whole still obeys the capacity rule. Returns batch_.size().
  using BatchFitsFn =
      common::FunctionRef<bool(rtsj::RelativeTime declared_cost,
                               rtsj::RelativeTime planned)>;
  TSF_REALTIME
  std::size_t collect_batch(const FitsFn& head_fits,
                            const BatchFitsFn& follow_fits);

  // Serves batch_[0..count) under ONE Timed(budget) section in the calling
  // fiber (the server's own thread), measuring elapsed wall-clock virtual
  // time the way the paper's implementation does, and charging
  // dispatch_overhead once for the whole burst — the §7 bind/dispatch
  // amortization. Each member gets its own label window, start/completion
  // instants and kComplete record, emitted at its true instant inside the
  // section. If the section's budget expires mid-batch, the running member
  // is recorded interrupted and the unstarted tail goes back to the front
  // of the queue untouched. This is every server's one dispatch path
  // (per-event serving passes count 1), and a burst allocates nothing: the
  // section's closure fits std::function's inline buffer.
  TSF_REALTIME
  DispatchResult dispatch_batch(std::size_t count, rtsj::RelativeTime budget);

  // Policy hook invoked on every release (after queueing). The Polling
  // Server ignores it; event-driven servers wake up.
  virtual void on_release(const Request& request) = 0;

  // Shared shed bookkeeping (dover callbacks + the governor hook): outcome,
  // trace record and ledger event, exactly once per dropped request.
  void record_shed(const Request& request, const std::string& reason);

  rtsj::vm::VirtualMachine& vm_;
  TaskServerParameters params_;
  std::unique_ptr<PendingQueue> queue_;
  std::vector<Request> batch_;  // collect_batch scratch, reused per burst
  rtsj::RelativeTime remaining_ = rtsj::RelativeTime::zero();
  std::uint64_t released_ = 0;
  rtsj::RelativeTime released_cost_ = rtsj::RelativeTime::zero();
  std::uint64_t served_ = 0;
  std::uint64_t interrupted_ = 0;
  std::uint64_t activations_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<model::JobOutcome> outcomes_;
  bool dover_enabled_ = false;
  std::uint64_t shed_count_ = 0;
  std::vector<model::ShedEvent> shed_events_;
};

}  // namespace tsf::core
