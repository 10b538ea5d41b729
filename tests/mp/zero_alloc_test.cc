// The memory-discipline contract: once warmed up, the steady-state epoch
// loop performs ZERO heap allocations. The two pieces that compose into an
// epoch of either backend are asserted separately with a global
// operator-new interposer:
//
//   1. The per-core world (rtsj VM + ExecSystem): timer fires, server
//      dispatch (batched and unbatched), periodic re-releases, outcome
//      recording, and cross-core fires appended to the core's outbox. This
//      is one core's share of a lock-step epoch and the worker-thread body
//      of the threads stepper.
//   2. The boundary's channel fabric: draining per-core mailboxes that
//      hold nothing due compacts them in place.
//
// The interposer replaces global operator new, so this TU must be the only
// one in the binary including alloc_interposer.h. Under ASan/TSan the
// sanitizer owns the allocator and the tests skip.
#include "support/alloc_interposer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/time.h"
#include "common/trace.h"
#include "exp/exec_runner.h"
#include "model/spec.h"
#include "mp/channel.h"
#include "rtsj/vm/vm.h"

namespace tsf {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

// Swallows every record: the steady-state claim is about the engine, not
// about a trace consumer's buffering policy.
class NullSink final : public common::TraceSink {
 public:
  void record(TimePoint, common::TraceKind, std::string_view, std::int64_t,
              std::string_view) override {}
};

// Steady periodic + aperiodic load; every aperiodic job fires `ack` on
// completion, which a world with an outbox stages there instead of
// resolving locally (no migration or triggered jobs: delivery is the
// fabric's business, exercised by the equivalence suites). Short job names
// stay within the small-string optimization on purpose. Aperiodic jobs
// arrive in pairs, so a batching server forms real bursts; a pair every
// 8 tu stays below the DS's 1/3 bandwidth, so the backlog stays bounded.
model::SystemSpec steady_spec(model::QueueDiscipline queue) {
  model::SystemSpec spec;
  spec.name = "za";
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.queue = queue;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  model::PeriodicTaskSpec task;
  task.name = "tau";
  task.period = tu(8);
  task.cost = tu(2);
  task.priority = 10;
  spec.periodic_tasks.push_back(task);
  for (int j = 0; j < 24; ++j) {
    model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = at_tu(1 + 8 * (j / 2));
    job.cost = tu(1);
    job.fires = "ack";
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(100);
  return spec;
}

// Counts what the fabric delivers; hosts every job.
class CountingEndpoint final : public exp::CoreEndpoint {
 public:
  bool deliver_fire(const std::string&) override {
    ++fires;
    return true;
  }
  void deliver_migrated(const exp::MigratedJob&) override {}
  bool serves_aperiodics() const override { return true; }
  std::size_t queue_depth() const override { return 0; }

  std::size_t fires = 0;
};

void expect_zero_alloc_world(int batch, model::QueueDiscipline queue) {
  if (!testing::alloc_interposer_active()) {
    GTEST_SKIP() << "sanitizer build: interposer compiled out";
  }
  const model::SystemSpec spec = steady_spec(queue);
  exp::ExecOptions options;
  options.dispatch_overhead = Duration::from_tu(0.05);
  options.poll_overhead = Duration::from_tu(0.01);
  options.batch = batch;

  rtsj::vm::VirtualMachine vm(options.kernel);
  NullSink null_sink;
  vm.set_trace_sink(&null_sink);
  std::vector<exp::StagedFire> outbox;
  exp::ExecSystem system(vm, spec, options, &outbox);
  system.start();

  // One-tu epochs; between them the outbox is emptied the way MultiVm's
  // boundary step does. Returns how many fires the slices staged.
  std::int64_t epoch_end = 0;
  auto run_epochs_until = [&](std::int64_t end) {
    std::size_t staged = 0;
    while (epoch_end < end) {
      vm.run_until(at_tu(++epoch_end));
      staged += outbox.size();
      outbox.clear();
    }
    return staged;
  };

  // Warm-up: first epochs size the event queue, the pending queue's rings,
  // the reserved outcome vectors and the outbox.
  run_epochs_until(40);

  const std::uint64_t before = testing::alloc_count();
  const std::size_t staged = run_epochs_until(100);
  const std::uint64_t after = testing::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "batch=" << batch << ": steady-state epochs allocated "
      << (after - before) << " times";

  // The window did real work: releases past t=40 were actually served, and
  // each completion staged its fire.
  const model::RunResult result = system.collect();
  std::size_t served = 0;
  std::size_t served_late = 0;
  for (const auto& job : result.jobs) {
    if (!job.served) continue;
    ++served;
    if (job.release >= at_tu(40)) ++served_late;
  }
  EXPECT_GT(served_late, 0u);
  EXPECT_GE(staged, served_late);
  // A batching world must have served real bursts, not one job at a time.
  if (batch > 1) {
    EXPECT_GT(served, result.server_dispatches);
  }
}

TEST(ZeroAllocSteadyState, PerCoreWorldPerEventDispatch) {
  expect_zero_alloc_world(1, model::QueueDiscipline::kFifoFirstFit);
}

TEST(ZeroAllocSteadyState, PerCoreWorldBatchedDispatch) {
  expect_zero_alloc_world(8, model::QueueDiscipline::kFifoFirstFit);
}

TEST(ZeroAllocSteadyState, PerCoreWorldPerEventDispatchListOfLists) {
  expect_zero_alloc_world(1, model::QueueDiscipline::kListOfLists);
}

TEST(ZeroAllocSteadyState, PerCoreWorldBatchedDispatchListOfLists) {
  expect_zero_alloc_world(8, model::QueueDiscipline::kListOfLists);
}

// A boundary with nothing due must not rebuild the mailboxes: messages
// still in flight stay where they are, and the scan allocates nothing.
TEST(ZeroAllocSteadyState, IdleFabricDrainAllocatesNothing) {
  if (!testing::alloc_interposer_active()) {
    GTEST_SKIP() << "sanitizer build: interposer compiled out";
  }
  constexpr std::size_t kCores = 4;
  mp::ChannelFabric fabric(kCores, mp::ChannelConfig{tu(1000)});
  std::vector<CountingEndpoint> endpoints(kCores);
  for (std::size_t c = 0; c < kCores; ++c) {
    fabric.connect(c, &endpoints[c]);
    fabric.bind(c, "j" + std::to_string(c));
  }
  // Warm-up: one message per core, in flight until t = 1000.
  for (std::size_t c = 0; c < kCores; ++c) {
    fabric.post_fire((c + 1) % kCores, "j" + std::to_string(c), at_tu(0));
  }
  ASSERT_EQ(fabric.drain(at_tu(1)), 0u);

  const std::uint64_t before = testing::alloc_count();
  for (std::int64_t t = 2; t < 102; ++t) {
    ASSERT_EQ(fabric.drain(at_tu(t)), 0u);
  }
  const std::uint64_t after = testing::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "100 idle drains over " << kCores << " cores allocated "
      << (after - before) << " times";

  // The kept messages are intact and leave once due.
  EXPECT_EQ(fabric.in_flight(), kCores);
  EXPECT_EQ(fabric.drain(at_tu(1000)), kCores);
  for (const auto& e : endpoints) EXPECT_EQ(e.fires, 1u);
}

}  // namespace
}  // namespace tsf
