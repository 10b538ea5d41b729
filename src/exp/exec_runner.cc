#include "exp/exec_runner.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/diag.h"
#include "common/rng.h"
#include "core/background_server.h"
#include "core/deferrable_task_server.h"
#include "core/polling_task_server.h"
#include "core/servable_async_event.h"
#include "core/sporadic_task_server.h"
#include "core/task_server.h"
#include "rtsj/realtime_thread.h"
#include "rtsj/timer.h"

namespace tsf::exp {

using common::Duration;
using common::TimePoint;

common::Duration jittered_cost(common::Rng& rng, const ExecOptions& options,
                               common::Duration cost) {
  if (options.cost_jitter <= 0.0) return cost;
  const double factor = rng.uniform(1.0 - options.cost_jitter,
                                    1.0 + options.cost_jitter);
  return common::max(common::Duration::ticks(1),
                     common::Duration::from_tu(cost.to_tu() * factor));
}

ExecOptions ideal_execution_options() { return ExecOptions{}; }

ExecOptions paper_execution_options() {
  ExecOptions o;
  // Stand-ins for the RI's costs, in virtual time: firing a timer burns
  // 0.25 tu at kernel priority, a context switch 0.02 tu, a release 0.03 tu.
  // Handler demand jitters +-15% around the declared cost. Calibrated so the
  // six-set metrics land in the paper's Table 3/5 bands (see EXPERIMENTS.md).
  o.kernel.timer_fire = Duration::ticks(250);
  o.kernel.context_switch = Duration::ticks(20);
  o.kernel.release = Duration::ticks(30);
  o.poll_overhead = Duration::ticks(40);
  o.dispatch_overhead = Duration::ticks(30);
  o.cost_jitter = 0.15;
  return o;
}

namespace {

std::unique_ptr<core::TaskServer> make_server(
    rtsj::vm::VirtualMachine& vm, const model::ServerSpec& spec,
    const ExecOptions& options) {
  core::TaskServerParameters params("server", spec.capacity, spec.period,
                                    spec.priority);
  params.set_queue_discipline(spec.queue)
      .set_strict_capacity(spec.strict_capacity)
      .set_admission_margin(spec.admission_margin)
      .set_poll_overhead(options.poll_overhead)
      .set_dispatch_overhead(options.dispatch_overhead)
      // D-over triages admission per event (its requeue path would re-run
      // the LST test and double-book the value ledger), so it pins the
      // per-event dispatch path regardless of the requested batch.
      .set_batch_limit(options.overload.mode == OverloadMode::kDover
                           ? 1
                           : options.batch);
  switch (spec.policy) {
    case model::ServerPolicy::kPolling:
      return std::make_unique<core::PollingTaskServer>(vm, params);
    case model::ServerPolicy::kDeferrable:
      return std::make_unique<core::DeferrableTaskServer>(vm, params);
    case model::ServerPolicy::kSporadic:
      return std::make_unique<core::SporadicTaskServer>(vm, params);
    case model::ServerPolicy::kBackground:
      return std::make_unique<core::BackgroundServer>(vm, params);
    case model::ServerPolicy::kNone:
      return nullptr;
  }
  TSF_PANIC("unknown server policy");
}

}  // namespace

class ExecSystem::JobHandler final : public core::ServableAsyncEventHandler {
 public:
  JobHandler(const std::string& name, common::Duration declared, Logic logic,
             JobInfo job)
      : ServableAsyncEventHandler(name, declared, std::move(logic)),
        info(std::move(job)) {}

  const JobInfo info;
};

ExecSystem::ExecSystem(rtsj::vm::VirtualMachine& vm,
                       const model::SystemSpec& spec,
                       const ExecOptions& options,
                       std::vector<StagedFire>* outbox)
    : vm_(vm), spec_(spec), outbox_(outbox) {
  TSF_ASSERT(!spec_.horizon.is_never(), "exec needs a finite horizon");

  server_ = make_server(vm_, spec_.server, options);

  // Periodic tasks.
  threads_.reserve(spec_.periodic_tasks.size());
  for (const auto& t : spec_.periodic_tasks) build_task(t);

  // Steady-state reservations: size every vector that grows during the run
  // up front, so the epoch loop itself never reallocates (the zero-alloc
  // hot-path contract asserted by exec_alloc_test). Re-fires and delivered
  // jobs can exceed these, which merely degrades to amortized growth.
  std::size_t periodic_outcomes = 0;
  for (const auto& t : spec_.periodic_tasks) {
    if (t.period.is_zero() || spec_.horizon <= t.start) continue;
    periodic_outcomes += static_cast<std::size_t>(
        (spec_.horizon - t.start).count() / t.period.count()) + 1;
  }
  result_.periodic_jobs.reserve(periodic_outcomes);
  if (server_ != nullptr) {
    server_->reserve(spec_.aperiodic_jobs.size());
  }

  // Aperiodic jobs: one SAE + SAEH each; a release timer unless the job is
  // triggered (released only by a channel delivery or another job's fire).
  common::Rng jitter_rng(options.jitter_seed);
  if (server_ != nullptr) {
    for (const auto& job : spec_.aperiodic_jobs) {
      const Duration actual = jittered_cost(jitter_rng, options, job.cost);
      // The raw spec value (not effective_value): zero falls back to the
      // declared cost inside the scheduling comparators, uniformly with
      // pool/migrated jobs.
      build_job(job.name, job.effective_declared_cost(), actual, job.fires,
                /*with_timer=*/!job.triggered, job.release, job.value,
                /*stealable=*/job.affinity < 0, job.relative_deadline);
    }
  }

  // overload = dover: swap the server's pending queue for the D-over
  // discipline before anything is released. The importance ratio k is the
  // spread of value densities across this core's firm jobs — the paper's
  // parameter of the (1+sqrt(k))^2 competitive bound.
  if (server_ != nullptr &&
      options.overload.mode == OverloadMode::kDover) {
    double dmin = 0.0, dmax = 0.0;
    for (const auto& job : spec_.aperiodic_jobs) {
      if (job.relative_deadline.is_zero()) continue;
      const double cost_tu = job.effective_declared_cost().to_tu();
      if (cost_tu <= 0.0) continue;
      const double density = job.effective_value() / cost_tu;
      if (dmin == 0.0 || density < dmin) dmin = density;
      if (density > dmax) dmax = density;
    }
    core::TaskServer::DOverParams dover;
    dover.importance_ratio = dmin > 0.0 ? dmax / dmin : 1.0;
    dover.meta = [](const core::Request& r) {
      const PendingView view = view_of(r);
      core::DOverQueue::JobMeta meta;
      meta.value = view.value;
      meta.relative_deadline = view.relative_deadline;
      return meta;
    };
    server_->enable_dover(std::move(dover));
  }
}

ExecSystem::~ExecSystem() = default;

rtsj::RealtimeThread* ExecSystem::build_task(
    const model::PeriodicTaskSpec& t) {
  threads_.push_back(std::make_unique<rtsj::RealtimeThread>(
      vm_, t.name, rtsj::PriorityParameters(t.priority),
      rtsj::PeriodicParameters(t.start, t.period, t.cost, t.deadline),
      [this, task = t](rtsj::RealtimeThread& self) {
        for (;;) {
          model::PeriodicOutcome out;
          out.task = task.name;
          out.release = task.start + task.period * self.release_index();
          self.work(task.cost);
          out.completion = self.now();
          out.deadline_missed =
              out.completion - out.release > task.effective_deadline();
          result_.periodic_jobs.push_back(out);
          self.wait_for_next_period();
        }
      }));
  return threads_.back().get();
}

void ExecSystem::build_job(const std::string& name, common::Duration declared,
                           common::Duration actual, const std::string& fires,
                           bool with_timer, common::TimePoint release,
                           double value, bool stealable,
                           common::Duration relative_deadline) {
  core::ServableAsyncEventHandler::Logic logic;
  if (fires.empty()) {
    logic = [actual](rtsj::Timed& timed) { timed.work(actual); };
  } else {
    // The fire happens only on completion: an interrupted handler (Timed
    // budget exhausted) unwinds before reaching it, so a half-served job
    // never signals downstream work.
    logic = [this, actual, fires](rtsj::Timed& timed) {
      timed.work(actual);
      fire_target(fires);
    };
  }
  handlers_.push_back(std::make_unique<JobHandler>(
      name, declared, std::move(logic),
      JobInfo{actual, fires, value, stealable, relative_deadline}));
  handlers_.back()->set_server(server_.get());
  events_.push_back(
      std::make_unique<core::ServableAsyncEvent>(vm_, name + ".e"));
  events_.back()->add_handler(handlers_.back().get());
  events_by_job_[name] = events_.back().get();
  handlers_by_job_[name] = handlers_.back().get();
  if (with_timer) {
    timers_.push_back(std::make_unique<rtsj::OneShotTimer>(
        vm_, release, events_.back().get()));
  }
}

void ExecSystem::fire_target(const std::string& job) {
  if (outbox_ != nullptr) {
    outbox_->push_back(StagedFire{job, vm_.now()});
    return;
  }
  // No fabric: resolve locally; a target living outside this world (a solo
  // re-run of one core's sub-spec) simply has nobody listening.
  auto it = events_by_job_.find(job);
  if (it != events_by_job_.end()) it->second->fire();
}

bool ExecSystem::deliver_fire(const std::string& job) {
  auto it = events_by_job_.find(job);
  if (it == events_by_job_.end()) return false;
  it->second->fire();
  return true;
}

void ExecSystem::deliver_migrated(const MigratedJob& job) {
  TSF_ASSERT(server_ != nullptr,
             "migrated job " << job.name << " delivered to a serverless core");
  TSF_ASSERT(events_by_job_.find(job.name) == events_by_job_.end(),
             "migrated job " << job.name << " delivered twice");
  build_job(job.name, job.declared_cost, job.actual_cost, job.fires,
            /*with_timer=*/false, common::TimePoint::origin(), job.value,
            /*stealable=*/true, job.relative_deadline);
  events_by_job_[job.name]->fire();
}

bool ExecSystem::serves_aperiodics() const { return server_ != nullptr; }

std::size_t ExecSystem::queue_depth() const {
  return server_ != nullptr ? server_->pending_count() : 0;
}

void ExecSystem::deliver_job(const MigratedJob& job,
                             common::TimePoint release) {
  TSF_ASSERT(server_ != nullptr,
             "job " << job.name << " delivered to a serverless core");
  // A re-delivery (a job stolen to this core twice, or stolen back) reuses
  // the handler already built here; costs are identical by construction.
  if (handlers_by_job_.find(job.name) == handlers_by_job_.end()) {
    build_job(job.name, job.declared_cost, job.actual_cost, job.fires,
              /*with_timer=*/false, release, job.value, /*stealable=*/true,
              job.relative_deadline);
  }
  stolen_away_.erase(job.name);  // stolen back: this core owns a release again
  // Release directly through the server with the preserved instant: the
  // event's own fire() would stamp the VM clock and lose the original
  // release (and with it the honest response time and the (job, release)
  // dedupe key merge_results relies on).
  server_->servable_event_released(handlers_by_job_[job.name], release);
}

const ExecSystem::JobInfo& ExecSystem::info_of(const core::Request& r) {
  // Every request on this system's server was released by a handler
  // build_job made.
  return static_cast<const JobHandler*>(r.handler)->info;
}

PendingView ExecSystem::view_of(const core::Request& r) {
  const JobInfo& info = info_of(r);
  PendingView view;
  view.handle = r.seq;
  view.job = r.handler->name();
  view.release = r.release;
  view.declared_cost = r.handler->cost();
  view.value = info.value == 0.0 ? view.declared_cost.to_tu() : info.value;
  view.relative_deadline = info.relative_deadline;
  return view;
}

StolenJob ExecSystem::to_stolen(const core::Request& r) {
  const JobInfo& info = info_of(r);
  StolenJob stolen;
  stolen.job.name = r.handler->name();
  stolen.job.declared_cost = r.handler->cost();
  stolen.job.actual_cost = info.actual;
  stolen.job.fires = info.fires;
  stolen.job.value = info.value;
  stolen.job.relative_deadline = info.relative_deadline;
  stolen.release = r.release;
  return stolen;
}

void ExecSystem::stealable_views(std::vector<PendingView>* out) const {
  if (server_ == nullptr) return;
  const common::TimePoint now = vm_.now();
  server_->visit_pending([&](const core::Request& r) {
    // Stealable jobs whose release is strictly earlier than the current
    // (boundary) instant — a boundary-coincident release is still
    // mid-bind, and take_pending would refuse it.
    if (r.release < now && info_of(r).stealable) out->push_back(view_of(r));
  });
}

std::optional<StolenJob> ExecSystem::steal(std::uint64_t handle) {
  if (server_ == nullptr) return std::nullopt;
  std::vector<core::Request> taken;
  server_->take_pending(
      [handle](const core::Request& r) { return r.seq == handle; }, &taken);
  if (taken.empty()) return std::nullopt;
  stolen_away_.insert(taken.front().handler->name());
  return to_stolen(taken.front());
}

common::Duration ExecSystem::released_cost() const {
  return server_ != nullptr ? server_->released_cost() : common::Duration::zero();
}

void ExecSystem::sheddable_views(std::vector<PendingView>* out) const {
  if (server_ == nullptr) return;
  const common::TimePoint now = vm_.now();
  server_->visit_pending([&](const core::Request& r) {
    // Sheddable = firm (carries a deadline) and released strictly before
    // this boundary instant — a boundary-coincident release is still
    // mid-bind, exactly like the steal guard.
    if (r.release < now && !info_of(r).relative_deadline.is_zero()) {
      out->push_back(view_of(r));
    }
  });
}

std::size_t ExecSystem::shed(const std::vector<std::uint64_t>& handles) {
  return server_ != nullptr ? server_->shed_pending(handles) : 0;
}

bool ExecSystem::admit_task(const model::PeriodicTaskSpec& task) {
  TSF_ASSERT(task.start >= vm_.now(),
             "task " << task.name << " admitted with a start in the past");
  // Only ever called mid-run (the rebalancer's admission pass fires at
  // epoch boundaries, after start()), so the new thread is started here —
  // it parks until task.start on its own.
  build_task(task)->start();
  return true;
}

void ExecSystem::start() {
  for (auto& timer : timers_) timer->start();
  if (server_ != nullptr) server_->start();
  for (auto& t : threads_) t->start();
}

model::RunResult ExecSystem::collect() {
  vm_.end_trace();  // no-op when a multi-core driver already ended it
  // Collect outcomes in spec order; anything the server never saw (or that
  // has no server at all) counts as released-but-unserved. A job can have
  // several outcomes (a triggered job fired more than once), so group by
  // name: the first release fills the spec-ordered slot, the rest — plus
  // jobs that aren't in this core's spec at all (migrated in mid-run) —
  // are appended after the spec-ordered block, in name order.
  std::map<std::string, std::vector<model::JobOutcome>> by_name;
  if (server_ != nullptr) {
    for (auto& o : server_->final_outcomes()) {
      by_name[o.name].push_back(o);
    }
    result_.server_activations = server_->activation_count();
    result_.server_dispatches = server_->dispatch_count();
    result_.shed_events = server_->shed_events();
  }
  result_.jobs.reserve(spec_.aperiodic_jobs.size());
  for (const auto& job : spec_.aperiodic_jobs) {
    auto it = by_name.find(job.name);
    if (it != by_name.end() && !it->second.empty()) {
      result_.jobs.push_back(std::move(it->second.front()));
      it->second.erase(it->second.begin());
    } else if (stolen_away_.count(job.name) == 0) {
      // Never released (includes a triggered job that was never fired):
      // recorded against its nominal release, served == false. Jobs a
      // steal moved to another core are skipped — the thief books them.
      model::JobOutcome o;
      o.name = job.name;
      o.release = job.release;
      o.cost = job.cost;
      result_.jobs.push_back(o);
    }
  }
  for (auto& [name, extras] : by_name) {
    for (auto& o : extras) result_.jobs.push_back(std::move(o));
  }
  result_.timeline = std::move(vm_.timeline());
  return std::move(result_);
}

model::RunResult run_exec(const model::SystemSpec& spec,
                          const ExecOptions& options) {
  rtsj::vm::VirtualMachine vm(options.kernel);
  ExecSystem system(vm, spec, options);
  system.start();
  vm.run_until(spec.horizon);
  return system.collect();
}

}  // namespace tsf::exp
