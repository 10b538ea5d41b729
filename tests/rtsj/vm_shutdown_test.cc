// Teardown regression suite for the VM's fiber shutdown: a VirtualMachine
// must destroy cleanly — resuming every unfinished fiber once so it unwinds
// on its own stack — whatever state the run left its fibers in: started
// but never run, parked mid-work, frozen at a horizon, or stranded by a run
// that aborted mid-horizon with an exception.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "common/time.h"
#include "rtsj/vm/vm.h"

namespace tsf::rtsj::vm {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

TEST(VmShutdown, UnRunFibersDestroyCleanly) {
  // Fibers started (contexts made, waiting for their first grant) but the
  // driver never runs: destruction must resume and finish every one.
  VirtualMachine vm;
  bool ran = false;
  for (int i = 0; i < 8; ++i) {
    auto* fiber = vm.create_fiber("f" + std::to_string(i), 10 + i,
                                  [&vm, &ran] {
                                    ran = true;
                                    vm.work(tu(5));
                                  });
    vm.start_fiber(fiber);
  }
  // Destructor runs here. The bodies must never have executed.
  EXPECT_FALSE(ran);
}

TEST(VmShutdown, NeverStartedFibersDestroyCleanly) {
  // Created but never started: no context exists, nothing to resume.
  VirtualMachine vm;
  vm.create_fiber("idle", 5, [&vm] { vm.work(tu(1)); });
  vm.create_fiber("idle2", 6, [&vm] { vm.work(tu(1)); });
}

TEST(VmShutdown, MixOfFinishedParkedAndUnrunFibers) {
  VirtualMachine vm;
  auto* done = vm.create_fiber("done", 20, [&vm] { vm.work(tu(1)); });
  auto* parked = vm.create_fiber("parked", 10, [&vm] { vm.work(tu(100)); });
  vm.start_fiber(done);
  vm.start_fiber(parked);
  vm.run_until(at_tu(2));  // "done" finishes; "parked" freezes mid-work
  auto* unrun = vm.create_fiber("unrun", 1, [&vm] { vm.work(tu(1)); });
  vm.start_fiber(unrun);
  EXPECT_TRUE(done->finished());
  EXPECT_FALSE(parked->finished());
  EXPECT_FALSE(unrun->finished());
  // Destructor: one finished (stack returned only), one frozen mid-work
  // (resumed and unwound), one ready-but-never-granted (resumed, body
  // skipped).
}

TEST(VmShutdown, AbortMidHorizonThenDestroyWithUnrunFibers) {
  // A run aborts mid-horizon: the erroring fiber's exception surfaces from
  // run_until while lower-priority fibers have not run at all and a
  // same-priority one is parked waiting. Destruction right after the abort
  // must still resume and unwind every survivor.
  auto vm = std::make_unique<VirtualMachine>();
  auto* boom = vm->create_fiber("boom", 30, [&] {
    vm->work(tu(2));
    throw std::runtime_error("handler failed");
  });
  auto* waiting = vm->create_fiber("waiting", 20, [&] { vm->work(tu(50)); });
  auto* starved = vm->create_fiber("starved", 1, [&] { vm->work(tu(50)); });
  vm->start_fiber(boom);
  vm->start_fiber(waiting);
  vm->start_fiber(starved);
  EXPECT_THROW(vm->run_until(at_tu(10)), std::runtime_error);
  EXPECT_FALSE(waiting->finished());
  EXPECT_FALSE(starved->finished());
  vm.reset();  // must not hang or crash
}

TEST(VmShutdown, DestroyInsideCatchHandler) {
  // The driver's caught exception is still active while the destructor
  // resumes the parked fiber: its unwinding must not be mistaken for a
  // fiber parking inside a handler of its own.
  auto vm = std::make_unique<VirtualMachine>();
  auto* boom = vm->create_fiber("boom", 20, [&] {
    vm->work(tu(1));
    throw std::runtime_error("handler failed");
  });
  auto* parked = vm->create_fiber("parked", 10, [&] { vm->work(tu(100)); });
  vm->start_fiber(boom);
  vm->start_fiber(parked);
  try {
    vm->run_until(at_tu(10));
    FAIL() << "the fiber's error did not surface";
  } catch (const std::runtime_error&) {
    EXPECT_FALSE(parked->finished());
    vm.reset();  // must not panic
  }
  EXPECT_EQ(vm, nullptr);
}

TEST(VmShutdown, DestroyFromAnotherThreadAfterPartialRun) {
  // The threads backend drives a VM on a worker and may destroy it from the
  // main thread after joining the worker: the destructor resumes the parked
  // fiber on a thread other than the one that stepped it, and the join is
  // the ordering edge it relies on.
  for (int round = 0; round < 20; ++round) {
    auto vm = std::make_unique<VirtualMachine>();
    auto* fiber = vm->create_fiber("w", 10, [&] { vm->work(tu(1000)); });
    vm->start_fiber(fiber);
    std::thread driver([&] { vm->run_until(at_tu(3)); });
    driver.join();
    EXPECT_FALSE(fiber->finished());
    vm.reset();
  }
}

}  // namespace
}  // namespace tsf::rtsj::vm
