// D-over as a pending-queue discipline — Koren & Shasha's optimal on-line
// overload scheduler (the discipline seeded in src/sim/dover.cc, lifted here
// into the execution path as a PendingQueue the TaskServer can run).
//
// The queue maintains a *privileged set*: entries that passed a
// processor-demand feasibility test at admission and are guaranteed (up to
// the server-bandwidth approximation below) to meet their deadlines. A new
// release is admitted iff the privileged set stays feasible with it;
// otherwise it waits. When a waiting entry's latest start time (LST) expires
// it either *takes over* — if its value exceeds (1 + sqrt(k)) times the
// total privileged value, the whole privileged set is demoted and the
// challenger admitted, k being the importance ratio of value densities —
// or it is shed, never to be dispatched. This gives D-over's
// 1/(1+sqrt(k))^2 competitive bound on accrued value.
//
// The feasibility test runs in *server time*: a request of cost c occupies
// roughly c * period/capacity of wall-clock time on a bandwidth-limited
// server, so demands are scaled by that ratio (integer arithmetic, rounded
// up). Entries with a zero relative deadline are soft: always admitted
// (they never constrain the test — an infinite deadline cannot be missed)
// and never shed.
//
// Admission, demotion and shedding are reported through callbacks so the
// owning TaskServer can emit the kAdmit/kDemote/kShed trace records and the
// exactly-once ledger entries the invariant checker reconciles
// (FORBIDDEN_BEHAVIOR_CATALOG.md).
#pragma once

#include <functional>
#include <string>

#include "core/pending_queue.h"

namespace tsf::core {

class DOverQueue : public PendingQueue {
 public:
  struct JobMeta {
    double value = 0.0;
    // Zero = soft (no deadline).
    rtsj::RelativeTime relative_deadline = rtsj::RelativeTime::zero();
  };

  struct Config {
    // k: max/min ratio of value densities across the job set (>= 1).
    double importance_ratio = 1.0;
    // Server-time scaling: serving cost c takes ~ c * num/den wall-clock
    // (num = server period ticks, den = server capacity ticks).
    std::int64_t bandwidth_num = 1;
    std::int64_t bandwidth_den = 1;
    std::function<rtsj::AbsoluteTime()> now;
    std::function<JobMeta(const Request&)> meta;
    // takeover = admitted by demoting the privileged set.
    std::function<void(const Request&, bool takeover)> on_admit;
    std::function<void(const Request&)> on_demote;
    // reason: "lst" (waiting entry expired, lost the takeover test) or
    // "missed-lst" (privileged entry could no longer make its deadline).
    std::function<void(const Request&, const std::string& reason)> on_shed;
  };

  explicit DOverQueue(Config config);

  TSF_REALTIME
  void push(Request r) override;
  // Earliest-deadline privileged entry that satisfies `fits` (EDF with
  // first-fit skipping, mirroring the paper's chooseNextEvent adaptation).
  TSF_REALTIME
  std::optional<Request> pop_fitting(const FitsFn& fits) override;
  bool empty() const override { return entries_.empty(); }
  std::size_t size() const override { return entries_.size(); }
  TSF_BARRIER_ONLY
  std::vector<Request> drain() override;
  // A privileged entry is demoted before it leaves for another core, so
  // the invariant checker never sees admitted work vanish.
  TSF_BARRIER_ONLY
  void take(const TakeFn& pred, std::vector<Request>* out) override;
  void visit(const VisitFn& fn) const override;

  std::size_t privileged_count() const;

 private:
  struct Entry {
    Request request;
    rtsj::AbsoluteTime deadline;  // never() = soft
    double value = 0.0;
    bool privileged = false;
    // The LST takeover test fires at most once per entry; an entry demoted
    // after its takeover is shed at its next critical instant.
    bool lst_fired = false;
  };

  // Wall-clock service-time upper bound for a declared cost.
  rtsj::RelativeTime scaled(rtsj::RelativeTime cost) const;
  rtsj::AbsoluteTime latest_start(const Entry& e) const;
  // Would the privileged set stay feasible with `candidate` added?
  bool feasible_with(const Entry& candidate,
                     rtsj::AbsoluteTime now) const;
  // Admission / takeover / shedding sweep at the current instant.
  void reconcile();

  Config config_;
  double takeover_factor_ = 2.0;  // 1 + sqrt(k)
  std::vector<Entry> entries_;    // arrival order
};

}  // namespace tsf::core
