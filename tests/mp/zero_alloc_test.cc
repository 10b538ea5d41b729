// The memory-discipline contract of the batched-dispatch PR: once warmed
// up, the steady-state epoch loop performs ZERO heap allocations. The two
// pieces that compose into an epoch of either backend are asserted
// separately with a global operator-new interposer:
//
//   1. The per-core world (rtsj VM + ExecSystem): timer fires, server
//      dispatch (batched and unbatched), periodic re-releases, outcome
//      recording. This is one core's share of a lock-step epoch and the
//      worker-thread body of the threads stepper.
//   2. Both steppers' staging substrate (MpscQueue<StagedFire>): after one
//      warm epoch, push/drain/recycle cycles run entirely on pooled nodes.
//
// The interposer replaces global operator new, so this TU must be the only
// one in the binary including alloc_interposer.h. Under ASan/TSan the
// sanitizer owns the allocator and the tests skip.
#include "support/alloc_interposer.h"

#include <gtest/gtest.h>

#include <string>

#include "common/time.h"
#include "common/trace.h"
#include "exp/exec_runner.h"
#include "model/spec.h"
#include "mp/mailbox.h"
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
  bool retract(TimePoint, common::TraceKind, std::string_view) override {
    return true;
  }
};

// Steady periodic + aperiodic load with no fire chains, migration or
// triggered jobs (those cross cores and are exercised by the equivalence
// suites; the zero-alloc claim is about the per-core dispatch loop). Short
// job names stay within the small-string optimization on purpose.
model::SystemSpec steady_spec() {
  model::SystemSpec spec;
  spec.name = "za";
  spec.server.policy = model::ServerPolicy::kDeferrable;
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
    job.release = at_tu(1 + 4 * j);
    job.cost = tu(1);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(100);
  return spec;
}

void expect_zero_alloc_world(int batch) {
  if (!testing::alloc_interposer_active()) {
    GTEST_SKIP() << "sanitizer build: interposer compiled out";
  }
  const model::SystemSpec spec = steady_spec();
  exp::ExecOptions options;
  options.dispatch_overhead = Duration::from_tu(0.05);
  options.poll_overhead = Duration::from_tu(0.01);
  options.batch = batch;

  rtsj::vm::VirtualMachine vm(options.kernel);
  NullSink null_sink;
  vm.set_trace_sink(&null_sink);
  exp::ExecSystem system(vm, spec, options);
  system.start();

  // Warm-up: first epochs size the event queue, the arena slabs, the
  // freelists and the reserved outcome vectors.
  vm.run_until(at_tu(40));

  const std::uint64_t before = testing::alloc_count();
  vm.run_until(at_tu(100));
  const std::uint64_t after = testing::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "batch=" << batch << ": steady-state epochs allocated "
      << (after - before) << " times";

  // The window did real work: releases past t=40 were actually served.
  const model::RunResult result = system.collect();
  int served_late = 0;
  for (const auto& job : result.jobs) {
    if (job.served && job.release >= at_tu(40)) ++served_late;
  }
  EXPECT_GT(served_late, 0);
}

TEST(ZeroAllocSteadyState, PerCoreWorldPerEventDispatch) {
  expect_zero_alloc_world(1);
}

TEST(ZeroAllocSteadyState, PerCoreWorldBatchedDispatch) {
  expect_zero_alloc_world(8);
}

TEST(ZeroAllocSteadyState, StagedFireMailboxRecyclesNodes) {
  if (!testing::alloc_interposer_active()) {
    GTEST_SKIP() << "sanitizer build: interposer compiled out";
  }
  mp::MpscQueue<mp::StagedFire> queue;
  auto epoch = [&queue](int posts) {
    for (int i = 0; i < posts; ++i) {
      mp::StagedFire fire;
      fire.job = "j";  // SSO, like real short job names
      fire.from_core = static_cast<std::size_t>(i % 4);
      fire.seq = static_cast<std::uint64_t>(i);
      queue.push(std::move(fire));
    }
    mp::StagedFire out;
    int drained = 0;
    while (queue.pop(&out)) ++drained;
    queue.recycle();
    return drained;
  };

  ASSERT_EQ(epoch(64), 64);  // warm-up populates the node pool

  const std::uint64_t before = testing::alloc_count();
  for (int e = 0; e < 100; ++e) {
    ASSERT_EQ(epoch(64), 64);
  }
  const std::uint64_t after = testing::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "pooled mailbox allocated " << (after - before)
      << " times across 100 steady epochs";
}

}  // namespace
}  // namespace tsf
