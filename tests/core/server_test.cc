// Unit tests for the concrete server policies beyond the paper's worked
// scenarios: capacity accounting, the DS boundary-spanning rule, sporadic
// replenishment, background service, and server statistics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/background_server.h"
#include "core/deferrable_task_server.h"
#include "core/polling_task_server.h"
#include "core/servable_async_event.h"
#include "core/sporadic_task_server.h"
#include "exp/exec_runner.h"
#include "rtsj/realtime_thread.h"
#include "rtsj/timer.h"
#include "rtsj/vm/vm.h"

namespace tsf::core {
namespace {

using common::Duration;
using common::Interval;
using common::TimePoint;
using rtsj::vm::VirtualMachine;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

// A test jig owning a VM, one server, and dynamically created events.
template <typename Server>
class Jig {
 public:
  explicit Jig(TaskServerParameters params) : server_(vm_, params) {}

  // Fires an event for a fresh handler with the given costs at time t.
  void event(const std::string& name, std::int64_t t, Duration declared,
             Duration actual = Duration::zero()) {
    event_at(name, TimePoint::origin() + tu(t), declared, actual);
  }

  void event_at(const std::string& name, TimePoint at, Duration declared,
                Duration actual = Duration::zero()) {
    if (actual.is_zero()) actual = declared;
    handlers_.push_back(std::make_unique<ServableAsyncEventHandler>(
        ServableAsyncEventHandler::pure_work(name, declared, actual)));
    handlers_.back()->set_server(&server_);
    events_.push_back(std::make_unique<ServableAsyncEvent>(vm_, name + ".e"));
    events_.back()->add_handler(handlers_.back().get());
    timers_.push_back(std::make_unique<rtsj::OneShotTimer>(
        vm_, at, events_.back().get()));
    timers_.back()->start();
  }

  void run(std::int64_t horizon) {
    server_.start();
    vm_.run_until(at_tu(horizon));
  }

  std::vector<Interval> busy(const std::string& who) {
    return vm_.timeline().busy_intervals(who);
  }

  VirtualMachine vm_;
  Server server_;
  std::vector<std::unique_ptr<ServableAsyncEventHandler>> handlers_;
  std::vector<std::unique_ptr<ServableAsyncEvent>> events_;
  std::vector<std::unique_ptr<rtsj::OneShotTimer>> timers_;
};

TaskServerParameters params_4_6(model::QueueDiscipline q =
                                    model::QueueDiscipline::kFifoFirstFit) {
  TaskServerParameters p("server", tu(4), tu(6), 30);
  p.set_queue_discipline(q);
  return p;
}

TEST(PollingServer, EventLargerThanCapacityNeverServed) {
  Jig<PollingTaskServer> jig(params_4_6());
  jig.event("huge", 0, tu(5));
  jig.run(60);
  EXPECT_EQ(jig.server_.served_count(), 0u);
  EXPECT_EQ(jig.server_.interrupted_count(), 0u);
  const auto outcomes = jig.server_.final_outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].served);
}

TEST(PollingServer, ServesMultipleEventsPerInstanceWithinCapacity) {
  Jig<PollingTaskServer> jig(params_4_6());
  jig.event("a", 0, tu(2));
  jig.event("b", 0, tu(2));
  jig.run(12);
  EXPECT_EQ(jig.busy("a")[0], (Interval{at_tu(0), at_tu(2)}));
  EXPECT_EQ(jig.busy("b")[0], (Interval{at_tu(2), at_tu(4)}));
  EXPECT_EQ(jig.server_.served_count(), 2u);
  EXPECT_EQ(jig.server_.activation_count(), 2u);  // t=0 and t=6
}

TEST(PollingServer, FirstFitServesLaterCheapEventFirst) {
  // §6.2.2's worked example at the server level.
  Jig<PollingTaskServer> jig(params_4_6());
  jig.event("expensive", 1, tu(3));
  jig.event("cheap", 2, tu(1));
  // At t=6 the server has capacity 4: expensive [6,9), cheap [9,10).
  jig.run(12);
  EXPECT_EQ(jig.busy("expensive")[0], (Interval{at_tu(6), at_tu(9)}));
  EXPECT_EQ(jig.busy("cheap")[0], (Interval{at_tu(9), at_tu(10)}));
}

TEST(PollingServer, FirstFitReordersWhenHeadTooBig) {
  Jig<PollingTaskServer> jig(params_4_6());
  // Three events: 3 + 3 doesn't fit one instance; the 1-cost event jumps in.
  jig.event("big1", 0, tu(3));
  jig.event("big2", 0, tu(3));
  jig.event("small", 0, tu(1));
  jig.run(18);
  EXPECT_EQ(jig.busy("big1")[0], (Interval{at_tu(0), at_tu(3)}));
  EXPECT_EQ(jig.busy("small")[0], (Interval{at_tu(3), at_tu(4)}));
  EXPECT_EQ(jig.busy("big2")[0], (Interval{at_tu(6), at_tu(9)}));
}

TEST(PollingServer, StrictFifoDoesNotReorder) {
  Jig<PollingTaskServer> jig(
      params_4_6(model::QueueDiscipline::kStrictFifo));
  jig.event("big1", 0, tu(3));
  jig.event("big2", 0, tu(3));
  jig.event("small", 0, tu(1));
  jig.run(18);
  EXPECT_EQ(jig.busy("big1")[0], (Interval{at_tu(0), at_tu(3)}));
  // Strict FIFO: big2 blocks the queue; small waits behind it.
  EXPECT_EQ(jig.busy("big2")[0], (Interval{at_tu(6), at_tu(9)}));
  EXPECT_EQ(jig.busy("small")[0], (Interval{at_tu(9), at_tu(10)}));
}

TEST(PollingServer, SameHandlerFiredTwiceServedTwice) {
  Jig<PollingTaskServer> jig(params_4_6());
  jig.event("h", 0, tu(2));
  // Fire the same event again at t=1 (second release of the same handler).
  jig.timers_.push_back(std::make_unique<rtsj::OneShotTimer>(
      jig.vm_, at_tu(1), jig.events_[0].get()));
  jig.timers_.back()->start();
  jig.run(12);
  EXPECT_EQ(jig.server_.released_count(), 2u);
  EXPECT_EQ(jig.server_.served_count(), 2u);
  const auto iv = jig.busy("h");
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], (Interval{at_tu(0), at_tu(2)}));
  EXPECT_EQ(iv[1], (Interval{at_tu(2), at_tu(4)}));
}

TEST(DeferrableServer, ServesImmediatelyMidPeriod) {
  Jig<DeferrableTaskServer> jig(params_4_6());
  jig.event("a", 2, tu(2));
  jig.run(12);
  // DS serves at release, not at the next activation.
  EXPECT_EQ(jig.busy("a")[0], (Interval{at_tu(2), at_tu(4)}));
}

TEST(DeferrableServer, PreservesCapacityWhileIdle) {
  Jig<DeferrableTaskServer> jig(params_4_6());
  jig.event("a", 1, tu(2));  // consumes 2, leaving 2
  jig.event("b", 4, tu(2));  // fits the preserved remainder
  jig.run(12);
  EXPECT_EQ(jig.busy("a")[0], (Interval{at_tu(1), at_tu(3)}));
  EXPECT_EQ(jig.busy("b")[0], (Interval{at_tu(4), at_tu(6)}));
  EXPECT_EQ(jig.server_.served_count(), 2u);
}

TEST(DeferrableServer, ExhaustedCapacityDefersToReplenishment) {
  Jig<DeferrableTaskServer> jig(params_4_6());
  jig.event("a", 0, tu(4));  // drains the whole budget
  jig.event("b", 1, tu(3));  // must wait for the t=6 replenishment
  jig.run(12);
  EXPECT_EQ(jig.busy("a")[0], (Interval{at_tu(0), at_tu(4)}));
  EXPECT_EQ(jig.busy("b")[0], (Interval{at_tu(6), at_tu(9)}));
}

TEST(DeferrableServer, BoundarySpanningRuleServesAcrossReplenishment) {
  // §4.2: remaining capacity 1, event cost 2, next refill closer than the
  // remaining capacity -> budget becomes remaining + full capacity and the
  // event runs across the boundary.
  Jig<DeferrableTaskServer> jig(params_4_6());
  jig.event("drain", 0, tu(3));  // leaves 1
  jig.event("span", 5, tu(2));   // at t=5: remaining 1, refill at 6
  jig.run(12);
  EXPECT_EQ(jig.busy("drain")[0], (Interval{at_tu(0), at_tu(3)}));
  ASSERT_EQ(jig.busy("span").size(), 1u);
  EXPECT_EQ(jig.busy("span")[0], (Interval{at_tu(5), at_tu(7)}));
  EXPECT_EQ(jig.server_.served_count(), 2u);
}

TEST(DeferrableServer, StrictCapacityRejectsEagerSpan) {
  // Same scenario, but the event arrives earlier than the remaining
  // capacity allows: the permissive rule serves it (over-consuming the
  // pre-boundary budget), the strict rule defers it to the replenishment.
  TaskServerParameters strict = params_4_6();
  strict.set_strict_capacity(true);
  Jig<DeferrableTaskServer> jig(strict);
  jig.event("drain", 0, tu(3));  // leaves 1 until t=6
  // At t=4.5: refill in 1.5 > remaining 1 -> the strict rule defers.
  jig.event_at("span", TimePoint::origin() + Duration::ticks(4500), tu(2));
  jig.run(12);
  ASSERT_EQ(jig.busy("span").size(), 1u);
  EXPECT_EQ(jig.busy("span")[0], (Interval{at_tu(6), at_tu(8)}));
}

TEST(DeferrableServer, PermissiveSpanServesEagerly) {
  // The paper's literal rule serves the same event immediately: 4.5 + 2
  // crosses the boundary, so the budget becomes remaining + capacity.
  Jig<DeferrableTaskServer> jig(params_4_6());
  jig.event("drain", 0, tu(3));
  jig.event_at("span", TimePoint::origin() + Duration::ticks(4500), tu(2));
  jig.run(12);
  ASSERT_EQ(jig.busy("span").size(), 1u);
  EXPECT_EQ(jig.busy("span")[0],
            (Interval{TimePoint::origin() + Duration::ticks(4500),
                      TimePoint::origin() + Duration::ticks(6500)}));
}

TEST(SporadicServer, ReplenishesConsumedAmountOnePeriodAfterUse) {
  Jig<SporadicTaskServer> jig(params_4_6());
  jig.event("a", 0, tu(3));  // consumes 3 in [0,3); replenished at 6
  jig.event("b", 3, tu(2));  // fits the remaining 1? no -> waits for 6
  jig.run(12);
  EXPECT_EQ(jig.busy("a")[0], (Interval{at_tu(0), at_tu(3)}));
  ASSERT_EQ(jig.busy("b").size(), 1u);
  EXPECT_EQ(jig.busy("b")[0], (Interval{at_tu(6), at_tu(8)}));
  EXPECT_GE(jig.server_.replenishment_count(), 1u);
}

TEST(SporadicServer, UnusedCapacityIsNotLost) {
  Jig<SporadicTaskServer> jig(params_4_6());
  // Unlike the PS, an SS that was idle at t=0..5 still has capacity at t=5.
  jig.event("late", 5, tu(4));
  jig.run(12);
  EXPECT_EQ(jig.busy("late")[0], (Interval{at_tu(5), at_tu(9)}));
}

TEST(BackgroundServer, RunsOnlyInIdleTime) {
  VirtualMachine vm;
  TaskServerParameters p("bg", tu(6), tu(6), 1);  // lowest priority
  BackgroundServer server(vm, p);
  // A periodic task at higher priority occupies [0,3) of every period 6.
  rtsj::RealtimeThread tau(
      vm, "tau", rtsj::PriorityParameters(20),
      rtsj::PeriodicParameters(TimePoint::origin(), tu(6), tu(3)),
      [](rtsj::RealtimeThread& self) {
        for (;;) {
          self.work(tu(3));
          self.wait_for_next_period();
        }
      });
  auto handler = std::make_unique<ServableAsyncEventHandler>(
      ServableAsyncEventHandler::pure_work("job", tu(5), tu(5)));
  handler->set_server(&server);
  ServableAsyncEvent event(vm, "e");
  event.add_handler(handler.get());
  rtsj::OneShotTimer timer(vm, at_tu(0), &event);
  timer.start();
  server.start();
  tau.start();
  vm.run_until(at_tu(30));
  // job runs in the gaps [3,6) and [9,12): completes at 11... wait:
  // 3 units in [3,6), 2 more in [9,11).
  const auto iv = vm.timeline().busy_intervals("job");
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], (Interval{at_tu(3), at_tu(6)}));
  EXPECT_EQ(iv[1], (Interval{at_tu(9), at_tu(11)}));
  EXPECT_EQ(server.served_count(), 1u);
  EXPECT_EQ(server.interrupted_count(), 0u);
}

TEST(BackgroundServer, NeverInterruptsEvenHugeJobs) {
  Jig<BackgroundServer> jig(TaskServerParameters("bg", tu(6), tu(6), 1));
  jig.event("huge", 0, tu(1), tu(20));  // actual far above declared
  jig.run(30);
  EXPECT_EQ(jig.server_.served_count(), 1u);
  EXPECT_EQ(jig.server_.interrupted_count(), 0u);
  EXPECT_EQ(jig.busy("huge")[0], (Interval{at_tu(0), at_tu(20)}));
}

TEST(TaskServerStats, DispatchAndActivationCounters) {
  Jig<PollingTaskServer> jig(params_4_6());
  jig.event("a", 0, tu(2));
  jig.event("b", 7, tu(2));
  jig.run(18);
  EXPECT_EQ(jig.server_.released_count(), 2u);
  EXPECT_EQ(jig.server_.dispatch_count(), 2u);
  EXPECT_EQ(jig.server_.activation_count(), 3u);
  EXPECT_EQ(jig.server_.served_count(), 2u);
}

TEST(PollingServer, FullUtilizationBackToBackActivations) {
  // capacity == period: the server can be busy wall-to-wall. A continuous
  // backlog must be drained without deadlock or lost activations.
  Jig<PollingTaskServer> jig(TaskServerParameters("PS", tu(6), tu(6), 30));
  for (int i = 0; i < 12; ++i) {
    jig.event("j" + std::to_string(i), 0, tu(3));
  }
  jig.run(40);
  // Two jobs per 6tu instance: all 12 served within 36tu.
  EXPECT_EQ(jig.server_.served_count(), 12u);
  EXPECT_EQ(jig.server_.interrupted_count(), 0u);
  const auto last = jig.busy("j11");
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0], (Interval{at_tu(33), at_tu(36)}));
}

TEST(DeferrableServer, ContinuousBacklogRespectsBandwidth) {
  // More demand than bandwidth: the DS must serve exactly capacity per
  // period and never more.
  Jig<DeferrableTaskServer> jig(params_4_6());
  for (int i = 0; i < 10; ++i) {
    jig.event("j" + std::to_string(i), 0, tu(2));
  }
  jig.run(18);
  // 4tu of service per 6tu period over [0,18): 12tu => 6 jobs of cost 2.
  EXPECT_EQ(jig.server_.served_count(), 6u);
  for (std::int64_t k = 0; k < 3; ++k) {
    common::Duration service = common::Duration::zero();
    for (int i = 0; i < 10; ++i) {
      for (const auto& iv : jig.busy("j" + std::to_string(i))) {
        const auto b = common::max(iv.begin, at_tu(6 * k));
        const auto e = common::min(iv.end, at_tu(6 * (k + 1)));
        if (e > b) service += e - b;
      }
    }
    EXPECT_LE(service, tu(4)) << "period " << k;
  }
}

TEST(TaskServerInterference, PollingIsPlainPeriodic) {
  VirtualMachine vm;
  PollingTaskServer ps(vm, params_4_6());
  EXPECT_EQ(ps.interference(tu(6)), tu(4));
  EXPECT_EQ(ps.interference(tu(7)), tu(8));
  EXPECT_DOUBLE_EQ(ps.utilization(), 4.0 / 6.0);
}

TEST(TaskServerInterference, DeferrableIsBackToBack) {
  VirtualMachine vm;
  DeferrableTaskServer ds(vm, params_4_6());
  // Jitter T - C = 2: ceil((w+2)/6)*4.
  EXPECT_EQ(ds.interference(tu(4)), tu(4));
  EXPECT_EQ(ds.interference(tu(5)), tu(8));  // back-to-back hit
  EXPECT_EQ(ds.interference(tu(10)), tu(8));
  EXPECT_EQ(ds.interference(tu(11)), tu(12));
}

// A batch never holds more requests than the queue, so a batch limit far
// above the job count behaves like any limit at or above it — and reserves
// no more than the spec's requests (2e9 requests would be ~48 GB).
TEST(TaskServerBatch, HugeBatchLimitRunsLikeAnyLimitAboveTheBacklog) {
  model::SystemSpec spec;
  spec.name = "bulk";
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(4);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int j = 0; j < 6; ++j) {
    model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = at_tu(j < 3 ? 1 : 7);  // two bursts
    job.cost = Duration::from_tu(0.5);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(20);

  exp::ExecOptions options;
  options.batch = 16;
  const auto sixteen = exp::run_exec(spec, options);
  options.batch = 2'000'000'000;
  const auto huge = exp::run_exec(spec, options);
  EXPECT_EQ(common::fingerprint(huge.timeline),
            common::fingerprint(sixteen.timeline));
  EXPECT_EQ(huge.server_dispatches, sixteen.server_dispatches);
  EXPECT_LT(sixteen.server_dispatches, 6u) << "nothing was batched";
}

}  // namespace
}  // namespace tsf::core
