// Cross-core communication interfaces between per-core execution worlds.
//
// The partitioned runtime (tsf::mp) advances one VirtualMachine per core to
// shared, deterministic epoch boundaries; cross-core traffic rides those
// boundaries. This header holds the vocabulary shared by both sides of that
// boundary: the StagedFire a handler appends to its core's outbox (owned by
// mp::MultiVm, which posts every outbox at its boundary step), and the
// per-core *endpoint* the fabric delivers into (implemented by
// exp::ExecSystem). Keeping the interfaces here — below the mp layer — lets
// the exec runner stay ignorant of mailboxes, epochs and routing while the
// fabric stays ignorant of servers, fibers and timers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "model/spec.h"

namespace tsf::exp {

// A job handed across cores by the migration channel, the global ready pool
// or the semi-partitioned work stealer: enough of the spec to rebuild a
// servable handler on the receiving core. `actual_cost` already includes any
// execution-time jitter (applied once, deterministically, when the run is
// set up — not per delivery attempt).
struct MigratedJob {
  std::string name;
  common::Duration declared_cost = common::Duration::zero();
  common::Duration actual_cost = common::Duration::zero();
  // Propagated fires target: a migrated job may itself fire another job's
  // event on completion.
  std::string fires;
  // Scheduling value (ready-pool / steal ordering); zero means "use the
  // declared cost", mirroring AperiodicJobSpec::effective_value().
  double value = 0.0;
  // Firm deadline relative to release (zero = soft job, never shed). Travels
  // with the job so the receiving core's overload policy keeps honoring it.
  common::Duration relative_deadline = common::Duration::zero();

  double effective_value() const {
    return value == 0.0 ? declared_cost.to_tu() : value;
  }
};

// The shared ordering key of the global ready pool and the steal chooser:
// `a` is scheduled before `b` iff it has the higher value, breaking ties by
// earlier release and then by name. Deliberately independent of spec
// declaration order, which keeps the declaration-order-invariance
// determinism property true under the global/semi-partitioned policies.
inline bool schedules_before(double value_a, common::TimePoint release_a,
                             std::string_view name_a, double value_b,
                             common::TimePoint release_b,
                             std::string_view name_b) {
  if (value_a != value_b) return value_a > value_b;
  if (release_a != release_b) return release_a < release_b;
  return name_a < name_b;
}

// A pending request removed from a core's queue by the work stealer or the
// rebalancer: the job identity plus its original release instant,
// preserved so the outcome on the thief core keeps the true response time.
// The core it left books nothing for that release; the thief books its
// fate.
struct StolenJob {
  MigratedJob job;
  common::TimePoint release = common::TimePoint::never();
};

// One pending request as an epoch-boundary pass sees it: the fields the
// steal, rebalance and shed orderings read, plus the handle the pass hands
// back to remove it. A view is valid for one pass only — until the queue
// it came from next changes.
struct PendingView {
  std::uint64_t handle = 0;  // the request's release seq on its server
  std::string_view job;      // the handler's name, owned by the endpoint
  common::TimePoint release = common::TimePoint::never();
  common::Duration declared_cost = common::Duration::zero();
  double value = 0.0;  // effective: the declared cost when unset
  // Firm deadline relative to release; zero = soft (never shed).
  common::Duration relative_deadline = common::Duration::zero();
};

// Index of the view schedules_before ranks first in a non-empty span (the
// earliest in queue order among equals).
inline std::size_t first_scheduled(std::span<const PendingView> views) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < views.size(); ++i) {
    const PendingView& a = views[i];
    const PendingView& b = views[best];
    if (schedules_before(a.value, a.release, a.job, b.value, b.release,
                         b.job)) {
      best = i;
    }
  }
  return best;
}

// One entry of a core's outbox, the outbound side of the channel fabric: a
// handler that completes a job with a `fires` target appends the fire of
// `job`'s event (resolved to its core by the fabric's routing table) at
// virtual instant `posted`, mid-epoch; delivery happens at a later epoch
// boundary, never synchronously.
struct StagedFire {
  std::string job;
  common::TimePoint posted = common::TimePoint::never();
};

// One core's inbound side: the fabric calls these while every VM is paused
// at an epoch boundary, so the effects (releases, server wake-ups) are
// processed when the core's VM resumes — deterministically at the boundary
// instant.
class CoreEndpoint {
 public:
  virtual ~CoreEndpoint() = default;
  // Fires the local event of `job`. Returns false when this core hosts no
  // such event (the fabric counts the message as undeliverable).
  //
  // Every mutating endpoint hook below is TSF_BARRIER_ONLY: the fabric and
  // the boundary policies (sched_policy, rebalance, overload) may only call
  // in while all VMs are paused at an epoch boundary. tsf_lint enforces
  // that no TSF_WORKER_PHASE code can reach them.
  TSF_BARRIER_ONLY
  virtual bool deliver_fire(const std::string& job) = 0;
  // Instantiates a migrated job on this core (handler + event bound to the
  // local server) and releases it immediately.
  TSF_BARRIER_ONLY
  virtual void deliver_migrated(const MigratedJob& job) = 0;
  // Whether this core has an aperiodic server (migration targets only
  // serving cores).
  virtual bool serves_aperiodics() const = 0;
  // Current pending-queue depth — the load signal behind least-loaded
  // migration, shared-pool dispatch and steal-victim selection.
  virtual std::size_t queue_depth() const = 0;

  // --- scheduling-policy hooks (mp::SchedPolicyEngine; defaults keep
  //     plain endpoints — tests, uniprocessor worlds — working unchanged)

  // Instantiates (or re-uses) `job`'s handler on this core and releases it
  // carrying the given original release instant. Unlike deliver_migrated the
  // outcome keeps the job's true release, so its response time includes the
  // time spent waiting in the shared pool or the victim's queue.
  TSF_BARRIER_ONLY
  virtual void deliver_job(const MigratedJob& job, common::TimePoint release) {
    (void)release;
    deliver_migrated(job);
  }
  // Re-releases a request another core's steal() gave up — the work
  // stealer's and the rebalancer's moves — like deliver_job, but keeps its
  // declared cost out of released_cost(): moved backlog is not freshly
  // offered work, and must not manufacture drift (or overload) at its own
  // target. (A pool dispatch is a job's first release anywhere: it goes
  // through deliver_job and counts.)
  TSF_BARRIER_ONLY
  virtual void deliver_moved(const StolenJob& moved) {
    deliver_job(moved.job, moved.release);
  }
  // Appends a view of every pending request the work stealer and the
  // rebalancer may move right now — stealable (unpinned) and released
  // strictly before the current instant — in queue order.
  TSF_BARRIER_ONLY
  virtual void stealable_views(std::vector<PendingView>* out) const {
    (void)out;
  }
  // Removes the pending request a view of this boundary named by `handle`
  // and returns it for delivery elsewhere, or nullopt if it is no longer
  // there.
  TSF_BARRIER_ONLY
  virtual std::optional<StolenJob> steal(std::uint64_t handle) {
    (void)handle;
    return std::nullopt;
  }

  // --- load sensing / online admission (mp::Rebalancer; defaults keep
  //     plain endpoints working unchanged)

  // Cumulative declared cost of every aperiodic request released on this
  // core so far, less what deliver_moved re-released here — the signal the
  // load meter integrates over a sliding window to measure this core's
  // offered aperiodic utilization.
  virtual common::Duration released_cost() const {
    return common::Duration::zero();
  }
  // Online admission of a periodic task the offline partitioner rejected
  // (rebalance = admit): builds the task's thread on this core and starts
  // it. The task's `start` must be at or after the core's current virtual
  // instant. Returns false when this endpoint cannot host periodic tasks.
  TSF_BARRIER_ONLY
  virtual bool admit_task(const model::PeriodicTaskSpec& task) {
    (void)task;
    return false;
  }

  // --- overload shedding (mp::OverloadGovernor; defaults keep plain
  //     endpoints working unchanged)

  // Appends a view of every pending request the governor may shed right
  // now — firm (non-zero relative deadline), released strictly before the
  // current instant, not being served — in queue order.
  TSF_BARRIER_ONLY
  virtual void sheddable_views(std::vector<PendingView>* out) const {
    (void)out;
  }
  // Drops the pending requests views of this boundary named by `handles`
  // in one pass over the queue, and records each — shed outcome, kShed
  // trace record, ledger event — in the order `handles` lists them.
  // Returns the number dropped; handles no longer pending are skipped.
  TSF_BARRIER_ONLY
  virtual std::size_t shed(const std::vector<std::uint64_t>& handles) {
    (void)handles;
    return 0;
  }
};

// One message's life, recorded by the fabric for the latency metrics: when
// it was posted, when (and whether) it was delivered, and between which
// cores. `from_core == kNoCore` marks a migration release (posted by the
// fabric itself at the job's release instant, not by a core).
struct ChannelDelivery {
  // kFire / kMigrate: PR 2 channel messages (posted → delivered is wire +
  // quantization latency). kPool: a shared-ready-pool dispatch under the
  // global policy (posted = the job's release; the gap is pool wait).
  // kSteal: a work-steal under the semi-partitioned policy (posted = the
  // job's original release on the victim core; the gap is the queue wait
  // before the steal).
  // kRebalance: a move decided by the online rebalancer (mp/rebalance.h) at
  // an epoch boundary. from_core != kNoCore: a pending job migrated to its
  // re-packed home, release-preserving like kSteal (posted = the original
  // release; the gap is the queue wait before the rebalance). from_core ==
  // kNoCore: the online admission of a periodic task the offline
  // partitioner had rejected (posted == delivered == the admission instant).
  enum class Kind { kFire, kMigrate, kPool, kSteal, kRebalance };
  static constexpr std::size_t kNoCore = static_cast<std::size_t>(-1);

  Kind kind = Kind::kFire;
  std::string job;  // target job name
  std::size_t from_core = kNoCore;
  std::size_t to_core = kNoCore;
  common::TimePoint posted = common::TimePoint::never();
  common::TimePoint delivered = common::TimePoint::never();
  bool ok = false;  // delivered to a live endpoint before the horizon

  common::Duration latency() const {
    return ok ? delivered - posted : common::Duration::infinite();
  }
};

}  // namespace tsf::exp
