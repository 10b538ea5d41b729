#include "rtsj/vm/vm.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>

#include "common/diag.h"

// Sanitizers must be told about every stack switch: ASan tracks the stack
// bounds (and fake stacks) of the running context, TSan models each fiber
// as a thread of its own. g++ and clang (14 and later) define
// __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__ under the matching -fsanitize.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace tsf::rtsj::vm {

// Placed at the top of the fiber's stack, so the first frame starts right
// below it (hence the alignment a stack pointer needs).
struct alignas(16) FiberContext {
  ucontext_t registers;
  // The usable stack, for ASan. The driver's is learned on each switch out
  // of it, since the driver may be a different thread every run_until.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

namespace {

// Every fiber's stack. The deepest fiber stack measured over the test
// suite, the example specs on both backends and the paper's exec tables is
// 7.4 KiB (g++ 12 -O2, x86-64); the rest is headroom for user handlers and
// sanitizer builds. Untouched pages are never made resident.
constexpr std::size_t kStackBytes = 256 * 1024;

// Fiber stacks outlive any one VM: a process builds and tears down
// thousands of short-lived worlds (one experiment cell each), so stacks are
// mapped once and recycled. One mapping is [guard page | stack]. Shared by
// every thread that drives a VM.
class StackPool {
 public:
  StackPool() : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    free_.reserve(kKeep);
  }

  // Returns the lowest usable byte of a kStackBytes stack.
  char* take() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        char* stack = free_.back();
        free_.pop_back();
        return stack;
      }
    }
    void* map = mmap(nullptr, page_ + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    // NOLINTNEXTLINE(performance-no-int-to-ptr): MAP_FAILED is (void*)-1.
    TSF_ASSERT(map != MAP_FAILED, "cannot map a " << kStackBytes
                                                  << "-byte fiber stack");
    const int guarded = mprotect(map, page_, PROT_NONE);
    TSF_ASSERT(guarded == 0, "cannot protect a fiber stack's guard page");
    return static_cast<char*>(map) + page_;
  }

  void give(char* stack) {
#if defined(__SANITIZE_ADDRESS__)
    // A fiber that never returned from its last frames (every fiber ends by
    // switching away) leaves their redzones poisoned for the next user.
    __asan_unpoison_memory_region(stack, kStackBytes);
#endif
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (free_.size() < kKeep) {
        free_.push_back(stack);
        return;
      }
    }
    munmap(stack - page_, page_ + kStackBytes);
  }

 private:
  // Stacks kept for reuse; the rest are unmapped. A world runs one fiber
  // per server and periodic task, so this covers any experiment cell's.
  static constexpr std::size_t kKeep = 64;
  const std::size_t page_;
  std::mutex mutex_;
  std::vector<char*> free_;
};

// Never destroyed: a VM may be torn down during static destruction.
StackPool& stack_pool() {
  static StackPool& pool = *new StackPool;
  return pool;
}

char* stack_of(FiberContext* context) {
  return reinterpret_cast<char*>(context + 1) - kStackBytes;
}

}  // namespace

VirtualMachine::VirtualMachine(OverheadModel overhead)
    : overhead_(overhead), driver_(std::make_unique<FiberContext>()) {
  // Charged by the event queue right before a taxed (kernel-timer) callback
  // fires — applied here once instead of wrapped into every scheduled
  // closure, which would heap-allocate on each timer re-arm.
  timers_.set_fire_tax([this] {
    if (!overhead_.timer_fire.is_zero()) add_overhead(overhead_.timer_fire);
  });
}

VirtualMachine::~VirtualMachine() {
  shutting_down_ = true;
  // Resume every unfinished fiber once: it throws FiberShutdown from its
  // park point (or skips its body, if it never ran), unwinds on its own
  // stack, and switches back here when finished. Then its stack goes back
  // to the pool.
  for (auto& f : fibers_) {
    FiberContext* context = f->context_;
    if (context == nullptr) continue;  // never started
    if (!f->finished()) {
      current_ = f.get();
      switch_context(*driver_, *context);
    }
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(context->tsan_fiber);
#endif
    context->~FiberContext();
    stack_pool().give(stack_of(context));
  }
}

Fiber* VirtualMachine::create_fiber(std::string name, int priority,
                                    Fiber::Body body) {
  fibers_.push_back(std::unique_ptr<Fiber>(
      new Fiber(this, std::move(name), priority, std::move(body))));
  return fibers_.back().get();
}

void VirtualMachine::start_fiber(Fiber* fiber) {
  TSF_ASSERT(fiber->state_ == Fiber::State::kNew,
             "fiber " << fiber->name_ << " started twice");
  char* stack = stack_pool().take();
  auto* context =
      new (stack + kStackBytes - sizeof(FiberContext)) FiberContext;
  const int saved = getcontext(&context->registers);
  TSF_ASSERT(saved == 0, "getcontext failed for fiber " << fiber->name_);
  context->stack_bottom = stack;
  context->stack_size = kStackBytes - sizeof(FiberContext);
  context->registers.uc_stack.ss_sp = stack;
  context->registers.uc_stack.ss_size = context->stack_size;
  context->registers.uc_link = nullptr;  // fiber_main never returns
#if defined(__SANITIZE_THREAD__)
  context->tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(context->tsan_fiber, fiber->name_.c_str());
#endif
  static_assert(sizeof(std::uintptr_t) == 8, "fiber_entry takes 2 halves");
  const auto bits = std::bit_cast<std::uintptr_t>(fiber);
  makecontext(&context->registers,
              reinterpret_cast<void (*)()>(&VirtualMachine::fiber_entry), 2,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
  fiber->context_ = context;
  make_ready(fiber);
}

void VirtualMachine::fiber_entry(unsigned hi, unsigned lo) {
  auto* fiber =
      std::bit_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) | lo);
  fiber->vm_->fiber_main(fiber);
}

void VirtualMachine::fiber_main(Fiber* self) {
  finish_switch(*self->context_);
  if (!shutting_down_) {
    try {
      self->body_();
    } catch (const FiberShutdown&) {
      // normal teardown path
    } catch (...) {
      // Nobody rethrows once the VM is being destroyed.
      if (!shutting_down_ && !pending_error_) {
        pending_error_ = std::current_exception();
      }
    }
  }
  self->state_ = Fiber::State::kFinished;
  if (!shutting_down_) close_trace(self);
  yield_to_scheduler(self);
  TSF_PANIC("finished fiber " << self->name_ << " was resumed");
}

VirtualMachine::TimerHandle VirtualMachine::schedule_timer(
    TimePoint at, std::function<void()> fn) {
  TSF_ASSERT(at >= now_, "timer scheduled in the past: " << at << " < "
                                                         << now_);
  return timers_.schedule(at, std::move(fn), /*taxed=*/true);
}

VirtualMachine::TimerHandle VirtualMachine::schedule_silent(
    TimePoint at, std::function<void()> fn) {
  TSF_ASSERT(at >= now_, "timer scheduled in the past: " << at << " < "
                                                         << now_);
  return timers_.schedule(at, std::move(fn));
}

void VirtualMachine::run_until(TimePoint horizon) {
  TSF_ASSERT(current_ == nullptr, "run_until called from inside a fiber");
  TSF_ASSERT(horizon >= now_, "horizon " << horizon << " is in the past");
  horizon_ = horizon;
  for (;;) {
    maybe_rethrow();
    process_due_timers();
    Fiber* next = pick_ready();
    if (next != nullptr && now_ < horizon_) {
      grant(next);
      // Back here when no fiber can run.
      switch_context(*driver_, *next->context_);
      continue;
    }
    if (now_ >= horizon_) break;
    const TimePoint t = timers_.next_time();
    if (t.is_never() || t > horizon_) {
      advance_to(horizon_);
      break;
    }
    advance_to(t);
  }
  maybe_rethrow();
}

void VirtualMachine::end_trace() {
  TSF_ASSERT(current_ == nullptr, "end_trace called from inside a fiber");
  if (frozen_ == nullptr) return;
  close_trace(frozen_);
  frozen_ = nullptr;
}

void VirtualMachine::work(Duration d) {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "work() called from outside a fiber");
  if (shutting_down_) return;
  TSF_ASSERT(!d.is_negative(), "negative work " << d);
  Duration remaining = d;
  for (;;) {
    if (self->interrupt_pending_ && self->interruptible_depth_ > 0) {
      self->interrupt_pending_ = false;
      // TSF_LINT_ALLOW[rt-throw]: this is the RTSJ AIE emulation itself —
      // Timed/interrupt() delivers AsynchronouslyInterruptedException by
      // unwinding the fiber, exactly the semantics the paper's timed
      // dispatch relies on. The handler boundary catches it by design.
      throw AsyncInterrupt{};
    }
    if (Fiber* top = pick_ready();
        top != nullptr && top->priority_ > self->priority_) {
      // Preempted: go back to the ready set keeping our remaining demand.
      self->state_ = Fiber::State::kReady;
      close_trace(self);
      make_ready(self);
      yield_to_scheduler(self);
      continue;
    }
    if (remaining.is_zero()) return;

    const TimePoint progress_from = common::max(now_, overhead_until_);
    const TimePoint completion = progress_from + remaining;
    const TimePoint next_timer = timers_.next_time();

    if (common::min(completion, next_timer) > horizon_) {
      // Freeze at the horizon: bank the service earned on the way there,
      // stay ready, and let run_until() return. A later run_until resumes.
      // The trace stays open and no switch is charged — grant() undoes the
      // freeze seamlessly unless another fiber actually takes over.
      if (horizon_ > progress_from) remaining -= (horizon_ - progress_from);
      advance_to(horizon_);
      self->state_ = Fiber::State::kReady;
      frozen_ = self;
      // Keep the old ready_seq_: the running fiber was ahead of every
      // equal-priority waiter, and a driver pause must not rotate it
      // behind them (make_ready would hand out a fresh, larger seq).
      ready_.push_back(self);
      yield_to_scheduler(self);
      continue;
    }
    if (next_timer < completion) {
      if (next_timer > progress_from) remaining -= (next_timer - progress_from);
      advance_to(next_timer);
      process_due_timers();
      continue;
    }
    // No kernel activity strictly before completion: finish. A timer due at
    // exactly the completion instant fires at the next scheduling point, so
    // a handler whose demand exactly fits its Timed budget completes.
    advance_to(completion);
    remaining = Duration::zero();
  }
}

void VirtualMachine::sleep_until(TimePoint t) {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "sleep_until called from outside a fiber");
  if (shutting_down_) return;
  if (t <= now_) return;
  self->state_ = Fiber::State::kSleeping;
  schedule_silent(t, [this, self] {
    if (self->state_ == Fiber::State::kSleeping) {
      if (!overhead_.release.is_zero()) add_overhead(overhead_.release);
      make_ready(self);
    }
  });
  close_trace(self);
  yield_to_scheduler(self);
}

void VirtualMachine::block() {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "block called from outside a fiber");
  if (shutting_down_) return;
  self->state_ = Fiber::State::kBlocked;
  close_trace(self);
  yield_to_scheduler(self);
}

void VirtualMachine::unblock(Fiber* fiber) {
  if (fiber->state_ == Fiber::State::kBlocked) make_ready(fiber);
}

void VirtualMachine::set_label(std::string label) {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "set_label called from outside a fiber");
  if (label == self->label_) return;
  close_trace(self);
  self->label_ = std::move(label);
  open_trace(self);
}

void VirtualMachine::post_interrupt(Fiber* fiber) {
  fiber->interrupt_pending_ = true;
}

void VirtualMachine::clear_interrupt(Fiber* fiber) {
  fiber->interrupt_pending_ = false;
}

void VirtualMachine::enter_interruptible(Fiber* fiber) {
  TSF_ASSERT(fiber != nullptr, "not in a fiber");
  ++fiber->interruptible_depth_;
}

void VirtualMachine::exit_interruptible(Fiber* fiber) {
  // Tolerate teardown: a fiber frozen inside a Timed section unwinds its
  // RAII guards while the VM shuts down.
  if (shutting_down_) return;
  TSF_ASSERT(fiber != nullptr && fiber->interruptible_depth_ > 0,
             "unbalanced exit_interruptible");
  --fiber->interruptible_depth_;
}

// ---- internals ----

void VirtualMachine::advance_to(TimePoint t) {
  TSF_ASSERT(t >= now_, "time went backwards: " << t << " < " << now_);
  now_ = t;
}

void VirtualMachine::add_overhead(Duration d) {
  overhead_until_ = common::max(overhead_until_, now_) + d;
}

void VirtualMachine::process_due_timers() {
  while (!timers_.empty() && timers_.next_time() <= now_) {
    timers_.pop_and_run();
  }
}

Fiber* VirtualMachine::pick_ready() const {
  Fiber* best = nullptr;
  for (Fiber* f : ready_) {
    if (best == nullptr || f->priority_ > best->priority_ ||
        (f->priority_ == best->priority_ && f->ready_seq_ < best->ready_seq_)) {
      best = f;
    }
  }
  return best;
}

void VirtualMachine::remove_from_ready(Fiber* fiber) {
  auto it = std::find(ready_.begin(), ready_.end(), fiber);
  TSF_ASSERT(it != ready_.end(), "fiber " << fiber->name_ << " not ready");
  ready_.erase(it);
}

void VirtualMachine::make_ready(Fiber* fiber) {
  fiber->state_ = Fiber::State::kReady;
  fiber->ready_seq_ = next_ready_seq_++;
  ready_.push_back(fiber);
}

void VirtualMachine::grant(Fiber* fiber) {
  if (frozen_ != nullptr) {
    if (frozen_ == fiber) {
      // Resume a horizon-frozen fiber in place: same instant, trace still
      // open, no context switch — indistinguishable from never pausing.
      frozen_ = nullptr;
      remove_from_ready(fiber);
      fiber->state_ = Fiber::State::kRunning;
      current_ = fiber;
      return;
    }
    // Someone else runs first: the freeze was a real preemption after all.
    close_trace(frozen_);
    frozen_ = nullptr;
  }
  remove_from_ready(fiber);
  fiber->state_ = Fiber::State::kRunning;
  current_ = fiber;
  ++context_switches_;
  if (!overhead_.context_switch.is_zero()) {
    add_overhead(overhead_.context_switch);
  }
  open_trace(fiber);
}

void VirtualMachine::yield_to_scheduler(Fiber* self) {
  // Teardown is exempt: the destructor may run inside the driver's handler,
  // and a fiber's own handlers have all closed by the time it finishes.
  TSF_ASSERT(shutting_down_ || std::current_exception() == nullptr,
             "fiber " << self->name_ << " parked inside a catch handler");
  Fiber* next =
      (!shutting_down_ && now_ < horizon_) ? pick_ready() : nullptr;
  if (next != nullptr) {
    grant(next);
  } else {
    current_ = nullptr;
  }
  switch_context(*self->context_,
                 next != nullptr ? *next->context_ : *driver_,
                 self->finished());
  // TSF_LINT_ALLOW[rt-throw]: teardown-only unwind — FiberShutdown is
  // thrown exactly once per fiber, at VM destruction, to collapse the
  // fiber's stack; it can never fire during a live run_until.
  if (shutting_down_) throw FiberShutdown{};
  TSF_ASSERT(current_ == self, "resumed out of turn: " << self->name_);
}

void VirtualMachine::switch_context(FiberContext& from, FiberContext& to,
                                    bool from_exits) {
  switching_from_ = &from;
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.asan_fake_stack,
                                 to.stack_bottom, to.stack_size);
#else
  (void)from_exits;
#endif
#if defined(__SANITIZE_THREAD__)
  if (&from == driver_.get()) from.tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  swapcontext(&from.registers, &to.registers);
  finish_switch(from);
}

void VirtualMachine::finish_switch(FiberContext& self) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(self.asan_fake_stack,
                                  &switching_from_->stack_bottom,
                                  &switching_from_->stack_size);
#else
  (void)self;
#endif
}

void VirtualMachine::open_trace(Fiber* fiber) {
  TSF_ASSERT(!fiber->trace_open_, "trace already open for " << fiber->name_);
  sink_->record(now_, common::TraceKind::kResume, fiber->label_);
  fiber->trace_open_ = true;
}

void VirtualMachine::close_trace(Fiber* fiber) {
  if (!fiber->trace_open_) return;
  sink_->record(now_, common::TraceKind::kPreempt, fiber->label_);
  fiber->trace_open_ = false;
}

void VirtualMachine::maybe_rethrow() {
  if (pending_error_) {
    auto e = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace tsf::rtsj::vm
