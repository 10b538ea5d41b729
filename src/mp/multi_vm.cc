#include "mp/multi_vm.h"

#include <atomic>
#include <barrier>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/diag.h"
#include "mp/channel.h"
#include "mp/load_meter.h"
#include "mp/overload.h"
#include "mp/rebalance.h"
#include "mp/sched_policy.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace tsf::mp {

using common::Duration;
using common::TimePoint;

const char* to_string(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kLockstep:
      return "lockstep";
    case ExecBackend::kThreads:
      return "threads";
  }
  return "?";
}

std::optional<ExecBackend> parse_exec_backend(std::string_view name) {
  if (name == "lockstep") return ExecBackend::kLockstep;
  if (name == "threads") return ExecBackend::kThreads;
  return std::nullopt;
}

// Pins the calling thread to `core` (modulo the host CPU count). Returns
// whether the pin took; on platforms without pthread_setaffinity_np the
// worker simply runs wherever the OS puts it — the backend's correctness
// never depends on placement, only the wall-clock numbers do.
static bool pin_current_thread(std::size_t core) {
#if defined(__linux__)
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus <= 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % static_cast<std::size_t>(cpus)), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

MultiVm::MultiVm(std::vector<model::SystemSpec> per_core_specs,
                 const exp::ExecOptions& options, ChannelFabric& fabric,
                 BoundaryStages stages)
    : outboxes_(per_core_specs.size()), fabric_(fabric), stages_(stages) {
  TSF_ASSERT(!per_core_specs.empty(), "MultiVm needs at least one core");
  TSF_ASSERT(fabric_.cores() == per_core_specs.size(),
             "channel fabric sized for " << fabric_.cores()
                                         << " cores, MultiVm has "
                                         << per_core_specs.size());
  TSF_ASSERT(stages_.meter != nullptr ||
                 (stages_.rebalancer == nullptr && stages_.governor == nullptr),
             "the rebalancer and the overload governor read the load meter");
  vms_.reserve(per_core_specs.size());
  systems_.reserve(per_core_specs.size());
  for (std::size_t c = 0; c < per_core_specs.size(); ++c) {
    const auto& spec = per_core_specs[c];
    vms_.push_back(
        std::make_unique<rtsj::vm::VirtualMachine>(options.kernel));
    systems_.push_back(std::make_unique<exp::ExecSystem>(
        *vms_.back(), spec, options, &outboxes_[c]));
    fabric_.connect(c, systems_.back().get());
    for (const auto& job : spec.aperiodic_jobs) fabric_.bind(c, job.name);
  }
}

MultiVm::~MultiVm() = default;

void MultiVm::attach_trace_sink(std::size_t core, common::TraceSink* sink) {
  TSF_ASSERT(core < vms_.size(),
             "attach_trace_sink: core " << core << " out of range");
  auto tee = std::make_unique<common::TeeSink>();
  tee->add(&vms_[core]->timeline());
  tee->add(sink);
  vms_[core]->set_trace_sink(tee.get());
  tees_.push_back(std::move(tee));
}

void MultiVm::on_boundary() noexcept {
  now_ = common::min(now_ + quantum_, horizon_);
  if (metrics_ != nullptr) {
    metrics_->add_counter("mp.epochs");
    metrics_->observe("mp.epoch.host_seconds",
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - epoch_begin_)
                          .count());
  }

  // At the horizon the run is over: close each core's frozen fiber there
  // first, so its kPreempt precedes whatever this boundary delivers.
  if (now_ == horizon_) {
    for (auto& vm : vms_) vm->end_trace();
  }

  // Every core is paused at now_, the instant cross-core messages become
  // visible. Post the epoch's fires core by core, each outbox in its post
  // order: the lock-step order, on either stepper. Every append
  // happens-before this step (the lock-step loop, or the barrier).
  for (std::size_t core = 0; core < outboxes_.size(); ++core) {
    for (const auto& fire : outboxes_[core]) {
      fabric_.post_fire(core, fire.job, fire.posted);
    }
    outboxes_[core].clear();
  }

  // Effects (event fires, releases, server wake-ups) are enqueued now and
  // processed when the VMs resume into the next epoch. Each stage sees the
  // queue depths the previous one produced.
  const std::size_t delivered = fabric_.drain(now_);
  if (metrics_ != nullptr) {
    metrics_->add_counter("mp.fabric.deliveries", delivered);
    metrics_->observe("mp.fabric.drain_size", static_cast<double>(delivered));
  }
  if (stages_.engine != nullptr) stages_.engine->on_epoch(now_);
  if (stages_.meter != nullptr) stages_.meter->sample(now_);
  if (stages_.rebalancer != nullptr) stages_.rebalancer->on_epoch(now_);
  if (stages_.governor != nullptr) stages_.governor->on_epoch(now_);
  epoch_begin_ = std::chrono::steady_clock::now();
}

double MultiVm::run(TimePoint horizon, Duration quantum, ExecBackend backend) {
  TSF_ASSERT(quantum > Duration::zero(), "epoch quantum must be positive");
  TSF_ASSERT(!ran_, "MultiVm::run is one-shot");
  ran_ = true;
  horizon_ = horizon;
  quantum_ = quantum;

  const auto run_begin = std::chrono::steady_clock::now();
  // Every endpoint is armed before any boundary can deliver into it. A
  // world's fibers are user-space contexts, so they may start here and be
  // stepped on a worker.
  for (auto& system : systems_) system->start();
  epoch_begin_ = std::chrono::steady_clock::now();
  std::size_t pinned = 0;
  if (backend == ExecBackend::kThreads) {
    pinned = step_threads();
  } else {
    step_lockstep();
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_begin)
          .count();
  if (metrics_ != nullptr && backend == ExecBackend::kThreads) {
    metrics_->set_gauge("threads.wall_seconds", wall_seconds);
    metrics_->set_gauge("threads.workers_pinned", static_cast<double>(pinned));
  }
  return wall_seconds;
}

void MultiVm::step_lockstep() {
  while (now_ < horizon_) {
    const TimePoint next = common::min(now_ + quantum_, horizon_);
    for (auto& vm : vms_) vm->run_until(next);
    on_boundary();
  }
}

std::size_t MultiVm::step_threads() {
  const std::size_t cores = vms_.size();
  std::atomic<std::size_t> pinned{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;  // the first error any worker raised
  // Whether the workers stop after the phase that just completed. Only the
  // barrier's completion step writes it — every worker is parked or gone
  // then, so it reads first_error unlocked — and every survivor reads it
  // before it next arrives, so all agree on the abort phase: an error in a
  // later epoch cannot make one worker leave while the others wait for it.
  bool stop = false;
  std::barrier epoch_barrier(static_cast<std::ptrdiff_t>(cores),
                             [&]() noexcept {
                               on_boundary();
                               stop = first_error != nullptr;
                             });

  std::vector<std::thread> workers;
  workers.reserve(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    workers.emplace_back([&, c] {
      if (pin_current_thread(c)) pinned.fetch_add(1, std::memory_order_relaxed);
      TimePoint now = TimePoint::origin();
      while (now < horizon_ && !stop) {
        now = common::min(now + quantum_, horizon_);
        try {
          vms_[c]->run_until(now);
        } catch (...) {
          // The first error wins. Mid-horizon abort: arrive_and_drop
          // completes the current phase for the others, and they unwind
          // after it.
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          epoch_barrier.arrive_and_drop();
          return;
        }
        epoch_barrier.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) w.join();
  if (first_error) std::rethrow_exception(first_error);
  return pinned.load();
}

std::vector<model::RunResult> MultiVm::collect() {
  std::vector<model::RunResult> out;
  out.reserve(systems_.size());
  for (auto& system : systems_) out.push_back(system->collect());
  return out;
}

}  // namespace tsf::mp
