// Cross-core event channels over the epochs of mp::MultiVm.
//
// Partitioned cores are deterministic silos; the only instants at which all
// of them agree on "now" are the epoch boundaries MultiVm drives them to.
// The ChannelFabric exploits exactly those instants: a handler on core A
// appends its fire to core A's outbox while the VM runs, MultiVm's
// boundary step posts it into the target core's mailbox, and the fabric
// drains every mailbox while all VMs are paused there. Because the boundary
// posts in (core, per-core post) order on either stepper and each mailbox
// delivers its due messages in post order, multi-core runs with cross-core
// traffic stay bit-reproducible.
//
// Two channel types:
//  * remote fire — `fires = <job>` in the spec: at handler completion the
//    named job's event is fired on whichever core hosts it, at the first
//    epoch boundary >= completion + channel_latency.
//  * migration — `migrate = yes`: the job is bound to no core; at the first
//    boundary >= release + channel_latency the fabric releases it on the
//    least-loaded serving core (smallest pending queue, ties to the lowest
//    core id), measured at that same boundary.
//
// The price of epoch synchronization is quantization delay: a message waits
// out the remainder of its epoch. drain() records every message's
// posted/delivered pair so exp::compute_channel_metrics can report the
// induced latency distribution (p50/p95/p99) — making the MultiVm quantum a
// measurable tuning knob (bench/cross_core.cc sweeps it).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "exp/cross_core.h"

namespace tsf::mp {

struct ChannelConfig {
  // Minimum in-flight time before a message may be delivered (on top of the
  // wait for the next epoch boundary). Zero: the next boundary alone.
  common::Duration latency = common::Duration::zero();
};

// One core's inbound queue. Messages are kept in post order; due ones are
// delivered by ChannelFabric::drain at epoch boundaries.
class Mailbox {
 public:
  struct Message {
    std::string job;
    std::size_t from_core = exp::ChannelDelivery::kNoCore;
    common::TimePoint posted = common::TimePoint::never();
    common::TimePoint due = common::TimePoint::never();
  };

  TSF_BARRIER_ONLY
  void push(Message m) { in_flight_.push_back(std::move(m)); }
  std::size_t size() const { return in_flight_.size(); }

  // Moves every message with due <= boundary to `out`, in post order, and
  // closes the gaps in place — the storage is reused, so a boundary with
  // nothing due allocates nothing. The whole queue is scanned: post order
  // is host core order, not virtual-time order, so due times are not
  // monotone along it and a due message may sit behind a not-yet-due one.
  TSF_BARRIER_ONLY
  void take_due(common::TimePoint boundary, std::vector<Message>* out);

 private:
  std::vector<Message> in_flight_;
};

class ChannelFabric {
 public:
  explicit ChannelFabric(std::size_t cores, ChannelConfig config = {});
  ChannelFabric(const ChannelFabric&) = delete;
  ChannelFabric& operator=(const ChannelFabric&) = delete;

  std::size_t cores() const { return mailboxes_.size(); }

  // --- wiring (done by MultiVm / mp::run before the run) ---

  // The inbound endpoint deliveries go to.
  void connect(std::size_t core, exp::CoreEndpoint* endpoint);
  // The connected endpoint (nullptr before connect) — the scheduling-policy
  // engine reads queue depths and delivers pool/stolen jobs through this.
  exp::CoreEndpoint* endpoint(std::size_t core) const;
  // Routing-table entry: job `name` lives on `core`. Fires deferred while
  // the name was merely expected (see below) are flushed into the core's
  // mailbox here, in original post order.
  void bind(std::size_t core, const std::string& job);
  // Declares that `job` will be bound later (a registered migratable, or a
  // ready-pool job the scheduling policy dispatches at run time). A fire
  // posted to an expected-but-unbound name is deferred until the bind, not
  // recorded as a terminal routing failure.
  void expect(const std::string& job);
  // Registers a migratable job, released into the least-loaded serving core
  // at the first boundary >= release + latency.
  void add_migratable(exp::MigratedJob job, common::TimePoint release);

  // --- runtime ---

  // Posts a remote fire. The target core comes from the routing table; an
  // unbound name is recorded as a failed delivery immediately. Barrier-only:
  // the fabric's containers are plain, so on both steppers a handler's fire
  // waits in its core's outbox and is posted here by MultiVm's boundary
  // step, never directly from a running core.
  TSF_BARRIER_ONLY
  void post_fire(std::size_t from_core, const std::string& job,
                 common::TimePoint posted);

  // The epoch hook: delivers every due message into its endpoint, in
  // (core, post-order) for fires and registration order for migrations.
  // All VMs must be paused at `boundary`. Returns messages delivered.
  TSF_BARRIER_ONLY
  std::size_t drain(common::TimePoint boundary);

  // Appends a terminal record to deliveries() — how the scheduling-policy
  // engine's pool dispatches and steals enter the same ledger (and the same
  // metrics / determinism checks) as the channel messages.
  void record(exp::ChannelDelivery delivery) {
    deliveries_.push_back(std::move(delivery));
  }

  // --- results ---

  // Every terminal message fate so far (delivered or failed), in delivery
  // order. Messages still in flight at the end of the run are *not* here;
  // see in_flight().
  const std::vector<exp::ChannelDelivery>& deliveries() const {
    return deliveries_;
  }
  std::size_t in_flight() const;

  // The shared load-balancing signal of migrations and the global ready
  // pool: the serving core with the shallowest pending queue (ties to the
  // lowest core id), or ChannelDelivery::kNoCore when nothing serves.
  std::size_t least_loaded_serving_core() const;

 private:
  struct PendingMigration {
    exp::MigratedJob job;
    common::TimePoint release;
    common::TimePoint due;
    bool delivered = false;
  };

  common::TimePoint due_after(common::TimePoint posted) const;

  ChannelConfig config_;
  std::vector<Mailbox> mailboxes_;
  std::vector<exp::CoreEndpoint*> endpoints_;
  std::map<std::string, std::size_t> routes_;  // job name -> hosting core
  // Names that will be bound at run time (migratables, ready-pool jobs),
  // and the fires waiting for each of them (post order).
  std::set<std::string> expected_;
  std::map<std::string, std::vector<Mailbox::Message>> deferred_;
  std::vector<PendingMigration> migrations_;
  std::vector<exp::ChannelDelivery> deliveries_;
  std::vector<Mailbox::Message> due_;  // drain's scratch, reused per core
};

}  // namespace tsf::mp
