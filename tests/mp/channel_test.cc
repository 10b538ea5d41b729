// The cross-core channel fabric: mailbox ordering, routing, latency
// eligibility, least-loaded migration, and the end-to-end semantics of
// remote fires through mp::run's exec engine (delivery at epoch boundaries,
// no fire from an interrupted sender, channel metrics).
#include "mp/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exp/metrics.h"
#include "mp/mp_system.h"
#include "mp/partition.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(double n) { return Duration::from_tu(n); }
TimePoint at_tu(double n) { return TimePoint::origin() + tu(n); }

// A scriptable endpoint: records what the fabric delivers.
class FakeEndpoint : public exp::CoreEndpoint {
 public:
  explicit FakeEndpoint(bool serves = true, std::size_t depth = 0)
      : serves_(serves), depth_(depth) {}

  bool deliver_fire(const std::string& job) override {
    fires.push_back(job);
    return known_jobs.empty() ||
           std::find(known_jobs.begin(), known_jobs.end(), job) !=
               known_jobs.end();
  }
  void deliver_migrated(const exp::MigratedJob& job) override {
    migrated.push_back(job.name);
  }
  bool serves_aperiodics() const override { return serves_; }
  std::size_t queue_depth() const override { return depth_; }

  std::vector<std::string> fires;
  std::vector<std::string> migrated;
  std::vector<std::string> known_jobs;  // empty: accept everything

 private:
  bool serves_;
  std::size_t depth_;
};

TEST(Mailbox, TakeDueReturnsDuePrefixInPostOrder) {
  Mailbox box;
  for (int i = 0; i < 4; ++i) {
    Mailbox::Message m;
    m.job = "j" + std::to_string(i);
    m.posted = at_tu(i);
    m.due = at_tu(i);
    box.push(m);
  }
  std::vector<Mailbox::Message> due;
  box.take_due(at_tu(2), &due);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].job, "j0");
  EXPECT_EQ(due[1].job, "j1");
  EXPECT_EQ(due[2].job, "j2");
  EXPECT_EQ(box.size(), 1u);
  due.clear();
  box.take_due(at_tu(10), &due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].job, "j3");
}

// Post order is core order, not time order: a message posted by a
// later-run core with an earlier virtual post time (hence earlier due
// time) must not be stuck behind the queue head (regression: take_due
// used to stop at the first not-yet-due message).
TEST(Mailbox, DueMessageBehindNotYetDueHeadStillLeaves) {
  Mailbox box;
  Mailbox::Message head;  // core 0 fired late in the epoch
  head.job = "late";
  head.posted = at_tu(5.7);
  head.due = at_tu(6.7);
  box.push(head);
  Mailbox::Message tail;  // core 1 fired earlier in virtual time
  tail.job = "early";
  tail.posted = at_tu(5.2);
  tail.due = at_tu(6.2);
  box.push(tail);

  std::vector<Mailbox::Message> due;
  box.take_due(at_tu(6.5), &due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].job, "early");
  ASSERT_EQ(box.size(), 1u);
  due.clear();
  box.take_due(at_tu(7), &due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].job, "late");
}

// A fire posted to an expected-but-unbound name (a ready-pool job before
// its dispatch, a migratable before its delivery) is deferred, not failed:
// bind() flushes it into the new home's mailbox and the next drain
// delivers it (regression: it used to be recorded as a terminal routing
// failure, silently dropping a release the partitioned baseline delivers).
TEST(ChannelFabric, FireToExpectedUnboundNameWaitsForTheBind) {
  ChannelFabric fabric(2);
  FakeEndpoint e0, e1;
  fabric.connect(0, &e0);
  fabric.connect(1, &e1);
  fabric.expect("pool_job");

  fabric.post_fire(0, "pool_job", at_tu(1.5));
  EXPECT_TRUE(fabric.deliveries().empty()) << "must not fail terminally";
  EXPECT_EQ(fabric.in_flight(), 1u);
  EXPECT_EQ(fabric.drain(at_tu(2)), 0u);  // still homeless: stays parked
  EXPECT_EQ(fabric.in_flight(), 1u);

  fabric.bind(1, "pool_job");  // the pool dispatched it to core 1
  EXPECT_EQ(fabric.drain(at_tu(2.5)), 1u);
  ASSERT_EQ(e1.fires.size(), 1u);
  EXPECT_EQ(e1.fires[0], "pool_job");
  ASSERT_EQ(fabric.deliveries().size(), 1u);
  EXPECT_TRUE(fabric.deliveries()[0].ok);
  EXPECT_EQ(fabric.deliveries()[0].posted, at_tu(1.5));
  EXPECT_EQ(fabric.deliveries()[0].delivered, at_tu(2.5));
  EXPECT_EQ(fabric.in_flight(), 0u);
}

TEST(ChannelFabric, RoutesFireToBoundCoreAtNextDrain) {
  ChannelFabric fabric(2);
  FakeEndpoint e0, e1;
  fabric.connect(0, &e0);
  fabric.connect(1, &e1);
  fabric.bind(1, "pong");

  fabric.post_fire(0, "pong", at_tu(1.5));
  EXPECT_TRUE(e1.fires.empty());  // nothing until a boundary drain
  EXPECT_EQ(fabric.in_flight(), 1u);

  EXPECT_EQ(fabric.drain(at_tu(2)), 1u);
  ASSERT_EQ(e1.fires.size(), 1u);
  EXPECT_EQ(e1.fires[0], "pong");
  EXPECT_TRUE(e0.fires.empty());
  EXPECT_EQ(fabric.in_flight(), 0u);

  ASSERT_EQ(fabric.deliveries().size(), 1u);
  const auto& d = fabric.deliveries()[0];
  EXPECT_TRUE(d.ok);
  EXPECT_EQ(d.from_core, 0u);
  EXPECT_EQ(d.to_core, 1u);
  EXPECT_EQ(d.posted, at_tu(1.5));
  EXPECT_EQ(d.delivered, at_tu(2));
  EXPECT_EQ(d.latency(), tu(0.5));
}

TEST(ChannelFabric, UnboundTargetIsATerminalFailedDelivery) {
  ChannelFabric fabric(2);
  FakeEndpoint e0, e1;
  fabric.connect(0, &e0);
  fabric.connect(1, &e1);

  fabric.post_fire(0, "ghost", at_tu(1));
  ASSERT_EQ(fabric.deliveries().size(), 1u);
  EXPECT_FALSE(fabric.deliveries()[0].ok);
  EXPECT_EQ(fabric.in_flight(), 0u);
  EXPECT_EQ(fabric.drain(at_tu(5)), 0u);
}

TEST(ChannelFabric, LatencyDefersEligibilityToALaterBoundary) {
  ChannelConfig config;
  config.latency = tu(1);
  ChannelFabric fabric(2, config);
  FakeEndpoint e0, e1;
  fabric.connect(0, &e0);
  fabric.connect(1, &e1);
  fabric.bind(1, "pong");

  fabric.post_fire(0, "pong", at_tu(1.5));
  EXPECT_EQ(fabric.drain(at_tu(2)), 0u);  // due at 2.5, not yet
  EXPECT_EQ(fabric.in_flight(), 1u);
  EXPECT_EQ(fabric.drain(at_tu(3)), 1u);
  ASSERT_EQ(fabric.deliveries().size(), 1u);
  EXPECT_EQ(fabric.deliveries()[0].delivered, at_tu(3));
  EXPECT_EQ(fabric.deliveries()[0].latency(), tu(1.5));
}

TEST(ChannelFabric, MigrationPicksLeastLoadedServingCore) {
  ChannelFabric fabric(3);
  FakeEndpoint busy(/*serves=*/true, /*depth=*/5);
  FakeEndpoint idle(/*serves=*/true, /*depth=*/1);
  FakeEndpoint no_server(/*serves=*/false, /*depth=*/0);
  fabric.connect(0, &busy);
  fabric.connect(1, &no_server);
  fabric.connect(2, &idle);

  exp::MigratedJob job;
  job.name = "mig";
  job.declared_cost = tu(1);
  job.actual_cost = tu(1);
  fabric.add_migratable(job, at_tu(4));

  EXPECT_EQ(fabric.drain(at_tu(3)), 0u);  // not released yet
  EXPECT_EQ(fabric.drain(at_tu(4)), 1u);
  EXPECT_TRUE(busy.migrated.empty());
  EXPECT_TRUE(no_server.migrated.empty());
  ASSERT_EQ(idle.migrated.size(), 1u);
  EXPECT_EQ(idle.migrated[0], "mig");
  // Once homed, fires can route to the migrated job.
  fabric.post_fire(0, "mig", at_tu(5));
  EXPECT_EQ(fabric.drain(at_tu(6)), 1u);
  ASSERT_EQ(idle.fires.size(), 1u);
  EXPECT_EQ(idle.fires[0], "mig");
}

TEST(ChannelFabric, MigrationTiesBreakToLowestCore) {
  ChannelFabric fabric(3);
  FakeEndpoint a(true, 2), b(true, 2), c(true, 2);
  fabric.connect(0, &a);
  fabric.connect(1, &b);
  fabric.connect(2, &c);
  exp::MigratedJob job;
  job.name = "mig";
  fabric.add_migratable(job, at_tu(0));
  fabric.drain(at_tu(1));
  EXPECT_EQ(a.migrated.size(), 1u);
  EXPECT_TRUE(b.migrated.empty() && c.migrated.empty());
}

TEST(ChannelFabric, MigrationWithoutAnyServingCoreFails) {
  ChannelFabric fabric(2);
  FakeEndpoint a(false), b(false);
  fabric.connect(0, &a);
  fabric.connect(1, &b);
  exp::MigratedJob job;
  job.name = "mig";
  fabric.add_migratable(job, at_tu(0));
  EXPECT_EQ(fabric.drain(at_tu(1)), 0u);
  ASSERT_EQ(fabric.deliveries().size(), 1u);
  EXPECT_FALSE(fabric.deliveries()[0].ok);
  EXPECT_EQ(fabric.in_flight(), 0u);  // terminal, not still pending
}

// --- end-to-end through the partitioned exec runner ---

model::SystemSpec ping_pong_spec() {
  model::SystemSpec spec;
  spec.name = "chan";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < 2; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(2);
    t.priority = 10;
    t.affinity = c;
    spec.periodic_tasks.push_back(t);
  }
  model::AperiodicJobSpec ping;
  ping.name = "ping";
  ping.release = at_tu(1);
  ping.cost = tu(1);
  ping.affinity = 0;
  ping.fires = "pong";
  spec.aperiodic_jobs.push_back(ping);
  model::AperiodicJobSpec pong;
  pong.name = "pong";
  pong.triggered = true;
  pong.cost = tu(1);
  pong.affinity = 1;
  spec.aperiodic_jobs.push_back(pong);
  spec.horizon = at_tu(24);
  return spec;
}

TEST(CrossCoreExec, FireOnCore0ServesTriggeredJobOnCore1) {
  const auto spec = ping_pong_spec();
  MpRunOptions options;
  options.quantum = tu(1);
  const auto run = mp::run(spec, options);

  ASSERT_EQ(run.merged.jobs.size(), 2u);
  const auto& ping = run.merged.jobs[0];
  const auto& pong = run.merged.jobs[1];
  EXPECT_TRUE(ping.served);
  EXPECT_TRUE(pong.served);
  // ping: released t=1 on core 0, served by the deferrable replica by t=2.
  // The fire posts at ping's completion and lands on core 1 at the next
  // whole-tu epoch boundary.
  ASSERT_EQ(run.channel_deliveries.size(), 1u);
  const auto& d = run.channel_deliveries[0];
  EXPECT_TRUE(d.ok);
  EXPECT_EQ(d.to_core, 1u);
  EXPECT_EQ(d.posted, ping.completion);
  EXPECT_EQ(pong.release, d.delivered);
  EXPECT_GE(pong.release, ping.completion);
  // The pong fire and its service show up on core 1's timeline.
  EXPECT_FALSE(run.merged.timeline.marks("c1/pong.e", common::TraceKind::kFire)
                   .empty());
  EXPECT_FALSE(run.merged.timeline.busy_intervals("c1/pong").empty());

  const auto metrics =
      exp::compute_channel_metrics(run.channel_deliveries, run.merged);
  EXPECT_EQ(metrics.delivered, 1u);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.e2e_samples, 1u);
  EXPECT_DOUBLE_EQ(metrics.latency_p99_tu, d.latency().to_tu());
  EXPECT_DOUBLE_EQ(metrics.e2e_p99_tu,
                   (pong.completion - d.posted).to_tu());
}

// The simulator engines have no channel fabric: a triggered job must end a
// sim run unserved, never released at its meaningless default instant
// (regression: the simulator used to release it at t=0).
TEST(CrossCoreSim, SimulatorLeavesTriggeredJobsUnserved) {
  const auto spec = ping_pong_spec();
  MpRunOptions sim_options;
  sim_options.engine = RunEngine::kSim;
  const auto run = mp::run(spec, sim_options);
  ASSERT_EQ(run.merged.jobs.size(), 2u);
  EXPECT_EQ(run.merged.jobs[0].name, "ping");
  EXPECT_TRUE(run.merged.jobs[0].served);
  EXPECT_EQ(run.merged.jobs[1].name, "pong");
  EXPECT_FALSE(run.merged.jobs[1].served);
}

TEST(CrossCoreExec, ChannelLatencyDelaysDelivery) {
  auto spec = ping_pong_spec();
  spec.channel_latency = tu(3);
  MpRunOptions options;
  options.quantum = tu(1);
  const auto run = mp::run(spec, options);
  ASSERT_EQ(run.channel_deliveries.size(), 1u);
  const auto& d = run.channel_deliveries[0];
  ASSERT_TRUE(d.ok);
  EXPECT_GE(d.latency(), tu(3));
  const auto& pong = run.merged.jobs[1];
  EXPECT_TRUE(pong.served);
  EXPECT_EQ(pong.release, d.delivered);
}

TEST(CrossCoreExec, InterruptedSenderNeverFires) {
  auto spec = ping_pong_spec();
  // Under-declare ping so the server dispatches it into a 2tu budget it
  // cannot finish in: the handler is interrupted before reaching the fire.
  spec.aperiodic_jobs[0].cost = tu(4);
  spec.aperiodic_jobs[0].declared_cost = tu(1);
  const auto run = mp::run(spec, MpRunOptions{});
  const auto& ping = run.merged.jobs[0];
  const auto& pong = run.merged.jobs[1];
  EXPECT_TRUE(ping.interrupted);
  EXPECT_FALSE(pong.served);
  EXPECT_TRUE(run.channel_deliveries.empty());
}

TEST(CrossCoreExec, MigratableJobLandsOnTheQuieterCore) {
  auto spec = ping_pong_spec();
  spec.aperiodic_jobs.clear();
  // Three same-instant jobs pinned to core 0 back its replica up; the
  // migratable job released just after must land on core 1.
  for (int i = 0; i < 3; ++i) {
    model::AperiodicJobSpec j;
    j.name = "load" + std::to_string(i);
    j.release = at_tu(1);
    j.cost = tu(1);
    j.affinity = 0;
    spec.aperiodic_jobs.push_back(j);
  }
  model::AperiodicJobSpec mig;
  mig.name = "mig";
  mig.release = at_tu(1.5);
  mig.cost = tu(1);
  mig.migrate = true;
  spec.aperiodic_jobs.push_back(mig);

  MpRunOptions options;
  options.quantum = tu(1);
  const auto run = mp::run(spec, options);
  const exp::ChannelDelivery* migration = nullptr;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind == exp::ChannelDelivery::Kind::kMigrate) migration = &d;
  }
  ASSERT_NE(migration, nullptr);
  EXPECT_TRUE(migration->ok);
  EXPECT_EQ(migration->to_core, 1u);
  EXPECT_EQ(migration->delivered, at_tu(2));
  // The migrated job really ran on core 1.
  EXPECT_FALSE(run.merged.timeline.busy_intervals("c1/mig").empty());
  const auto& mig_outcome = run.merged.jobs.back();
  ASSERT_EQ(mig_outcome.name, "mig");
  EXPECT_TRUE(mig_outcome.served);
}

}  // namespace
}  // namespace tsf::mp
