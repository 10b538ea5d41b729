// A deterministic virtual-time kernel for RTSJ-style schedulable objects.
//
// The paper's executions ran on the RTSJ Reference Implementation on an
// rtlinux kernel. This repository replaces that substrate with a virtual
// machine that reproduces the *mechanisms* the paper's evaluation depends on
// (preemptive fixed-priority scheduling, timers that preempt everything,
// wall-clock `Timed` budgets, asynchronous interruption) while being fully
// deterministic: scheduling decisions depend only on virtual time and
// insertion order, so every run is bit-reproducible and tests can assert
// exact timelines.
//
// Execution model
// ---------------
// Each schedulable entity is a Fiber: a user-space context (glibc
// makecontext/swapcontext) on a stack of its own. A VM and all its fibers
// run on whichever thread calls run_until(): exactly one of them — a fiber,
// or the driver inside run_until() — executes at any moment, and handing
// control from one to the next is a single swapcontext, with no kernel
// wake-up. Fibers execute ordinary C++; only VirtualMachine::work() consumes
// virtual time. work(d) advances the global clock, yields to higher-priority
// fibers that become ready, and accounts for kernel overhead (timer fires,
// context switches) exactly the way the paper's §6/§7 discussion requires:
// overhead delays everyone, and a server that measures elapsed time around a
// handler will observe it.
//
// Resources: a VM creates no OS thread. Each started fiber reserves a
// 256 KiB stack above a guard page (only the pages it touches become
// resident), taken from a small process-wide pool and returned to it when
// the VM is destroyed. The destructor unwinds every parked fiber on its own
// stack by resuming it into a FiberShutdown.
//
// A fiber never parks (work, sleep_until, block) inside a catch handler. The
// C++ runtime keeps one stack of caught exceptions per OS thread, and a
// user-space switch from inside a handler would interleave it with another
// fiber's; parking asserts std::current_exception() == nullptr. Record what
// the handler needs and park after it. The check cannot tell a fiber's
// handler from the driver's, so run_until() must not be called from inside
// a catch handler either; the destructor may be.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/event_queue.h"
#include "common/time.h"
#include "common/trace.h"

namespace tsf::rtsj::vm {

using common::Duration;
using common::TimePoint;

// Kernel costs, all defaulting to zero (an ideal machine). The paper's
// execution results are driven by these being non-zero on a real VM.
struct OverheadModel {
  // CPU consumed, at effectively-infinite priority, each time a kernel timer
  // fires (the paper: "the timers charged to fire the asynchronous events").
  Duration timer_fire = Duration::zero();
  // CPU consumed on each fiber dispatch.
  Duration context_switch = Duration::zero();
  // CPU consumed when a sleeping fiber is released (period boundaries).
  Duration release = Duration::zero();
};

// Delivered inside a fiber at an interruptible point after post_interrupt().
// The RTSJ analogue is AsynchronouslyInterruptedException.
struct AsyncInterrupt {};

// Delivered inside a fiber when the VM shuts down; fibers must let it
// propagate out of their bodies.
struct FiberShutdown {};

class VirtualMachine;
// A fiber's saved registers and sanitizer state (defined in vm.cc).
struct FiberContext;

class Fiber {
 public:
  using Body = std::function<void()>;

  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  bool finished() const { return state_ == State::kFinished; }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

 private:
  friend class VirtualMachine;
  enum class State { kNew, kReady, kRunning, kBlocked, kSleeping, kFinished };

  Fiber(VirtualMachine* machine, std::string name, int priority, Body body)
      : vm_(machine),
        name_(std::move(name)),
        label_(name_),
        priority_(priority),
        body_(std::move(body)) {}

  VirtualMachine* vm_;
  std::string name_;
  std::string label_;  // current trace attribution (see set_label)
  int priority_;
  Body body_;
  State state_ = State::kNew;
  std::uint64_t ready_seq_ = 0;  // FIFO tie-break within a priority
  bool interrupt_pending_ = false;
  int interruptible_depth_ = 0;
  bool trace_open_ = false;
  // Set by start_fiber; lives at the top of the fiber's pooled stack.
  FiberContext* context_ = nullptr;
};

class VirtualMachine {
 public:
  explicit VirtualMachine(OverheadModel overhead = {});
  ~VirtualMachine();
  VirtualMachine(const VirtualMachine&) = delete;
  VirtualMachine& operator=(const VirtualMachine&) = delete;

  TimePoint now() const { return now_; }
  const OverheadModel& overhead() const { return overhead_; }
  common::Timeline& timeline() { return timeline_; }
  std::uint64_t context_switches() const { return context_switches_; }

  // The sink every trace record goes through; the in-memory timeline by
  // default. All framework emission (servers, async events, the kernel
  // itself) must use this, not timeline(), so external consumers see the
  // whole stream.
  common::TraceSink& trace() { return *sink_; }

  // Replaces the trace sink (e.g. with a TeeSink feeding the timeline plus
  // streaming consumers); nullptr restores the internal timeline. The sink
  // must outlive the VM or be reset before destruction.
  void set_trace_sink(common::TraceSink* sink) {
    sink_ = sink != nullptr ? sink : &timeline_;
  }

  // ---- world construction (outside fibers or from fibers) ----

  // The fiber starts parked; start_fiber makes it ready.
  Fiber* create_fiber(std::string name, int priority, Fiber::Body body);
  void start_fiber(Fiber* fiber);

  using TimerHandle = common::EventQueue::Handle;
  // Kernel timer: charges OverheadModel::timer_fire when it expires, then
  // runs `fn` in kernel context (no fiber; may ready fibers, fire events).
  TimerHandle schedule_timer(TimePoint at, std::function<void()> fn);
  // Kernel event with no overhead charge (used for fiber wake-ups, whose
  // cost is modelled separately by OverheadModel::release).
  TimerHandle schedule_silent(TimePoint at, std::function<void()> fn);

  // Runs the world until `horizon`. Resumable: calling again with a later
  // horizon continues where the previous call stopped, with fibers exactly
  // where they were. Must be called from outside any fiber.
  void run_until(TimePoint horizon);

  // Ends the trace of the run: closes the busy interval of the fiber the
  // last run_until left frozen mid-work() with a kPreempt at now(), so the
  // trace does not end mid-interval (busy_intervals would drop it). Call
  // once the run is over, from outside any fiber; a second call records
  // nothing. Should the world run on, the pause is then a real preemption.
  void end_trace();

  // ---- calls made from inside fibers ----

  // Consume `d` units of CPU service. Yields to higher-priority fibers,
  // absorbs kernel overhead, and throws AsyncInterrupt if an interrupt is
  // delivered at an interruptible point. work(zero) is a pure
  // preemption/interruption point. TSF_REALTIME: this is the innermost
  // service loop — every handler tick passes through here.
  TSF_REALTIME
  void work(Duration d);
  void sleep_until(TimePoint t);
  // Park until another context calls unblock(). Not an interruptible point.
  void block();
  // Make a blocked fiber ready; no-op if the fiber is not blocked.
  void unblock(Fiber* fiber);

  Fiber* current() const { return current_; }

  // Re-attributes the current fiber's subsequent execution trace to `label`
  // (the framework labels server time vs individual handler service).
  void set_label(std::string label);

  // ---- asynchronous interruption (the RTSJ Timed/AIE machinery) ----
  void post_interrupt(Fiber* fiber);
  void clear_interrupt(Fiber* fiber);
  void enter_interruptible(Fiber* fiber);
  void exit_interruptible(Fiber* fiber);

 private:
  friend class Fiber;

  // makecontext entry point: the Fiber* arrives split into two 32-bit ints.
  static void fiber_entry(unsigned hi, unsigned lo);
  void fiber_main(Fiber* self);
  void advance_to(TimePoint t);
  void add_overhead(Duration d);
  void process_due_timers();
  Fiber* pick_ready() const;
  void remove_from_ready(Fiber* fiber);
  void make_ready(Fiber* fiber);
  void grant(Fiber* fiber);
  // Parks `self` (whose state has already been updated) and switches to the
  // next ready fiber or to the driver; returns when granted again. Throws
  // FiberShutdown if resumed during teardown; never returns to a finished
  // fiber.
  void yield_to_scheduler(Fiber* self);
  // Saves the running context into `from` and resumes `to`; returns when
  // something switches back to `from`. `from_exits`: `from` never resumes.
  void switch_context(FiberContext& from, FiberContext& to,
                      bool from_exits = false);
  // Completes a switch on the context it resumed (sanitizer bookkeeping).
  void finish_switch(FiberContext& self);
  void open_trace(Fiber* fiber);
  void close_trace(Fiber* fiber);
  void maybe_rethrow();

  OverheadModel overhead_;
  TimePoint now_ = TimePoint::origin();
  TimePoint overhead_until_ = TimePoint::origin();
  TimePoint horizon_ = TimePoint::origin();
  common::EventQueue timers_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Fiber*> ready_;
  Fiber* current_ = nullptr;  // nullptr: the driver is running
  // Fiber parked mid-work() by the run_until horizon, trace still open and
  // no context switch charged: resuming the world at the same instant is a
  // driver artifact, not a scheduling event, so a later run_until continues
  // it seamlessly (essential for lock-step multi-VM drivers, which pause
  // every epoch) and the trace shows no mark of the pause. If another fiber
  // is granted first, or the driver calls end_trace(), the pause becomes a
  // real preemption (trace closed; a later grant charges the switch).
  Fiber* frozen_ = nullptr;
  // The context of whoever drives the VM: run_until()'s caller, or the
  // destructor's. It moves with the VM between threads.
  std::unique_ptr<FiberContext> driver_;
  // The context that made the switch in flight (read by finish_switch).
  FiberContext* switching_from_ = nullptr;
  std::uint64_t next_ready_seq_ = 0;
  std::uint64_t context_switches_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr pending_error_;
  common::Timeline timeline_;
  common::TraceSink* sink_ = &timeline_;  // declared after timeline_
};

}  // namespace tsf::rtsj::vm
