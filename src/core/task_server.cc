#include "core/task_server.h"

#include <algorithm>

#include "common/diag.h"

namespace tsf::core {

TaskServer::TaskServer(rtsj::vm::VirtualMachine& machine,
                       TaskServerParameters params)
    : vm_(machine), params_(std::move(params)) {
  TSF_ASSERT(params_.capacity() > rtsj::RelativeTime::zero(),
             "server " << params_.name() << " needs a positive capacity");
  TSF_ASSERT(params_.period() >= params_.capacity(),
             "server " << params_.name() << " capacity exceeds its period");
  queue_ = PendingQueue::make(params_.queue_discipline(), params_.capacity());
  remaining_ = params_.capacity();
}

void TaskServer::reserve(std::size_t expected_requests) {
  outcomes_.reserve(expected_requests);
  // A batch never holds more requests than the queue.
  batch_.reserve(std::min(static_cast<std::size_t>(params_.batch_limit()),
                          expected_requests));
}

void TaskServer::servable_event_released(
    ServableAsyncEventHandler* handler) {
  servable_event_released(handler, vm_.now());
}

void TaskServer::servable_event_released(ServableAsyncEventHandler* handler,
                                         rtsj::AbsoluteTime release) {
  TSF_ASSERT(handler != nullptr, "null handler released");
  Request r;
  r.handler = handler;
  r.release = release;
  r.seq = next_seq_++;
  ++released_;
  released_cost_ += handler->cost();
  vm_.trace().record(vm_.now(), common::TraceKind::kRelease,
                        handler->name());
  queue_->push(r);
  on_release(r);
}

void TaskServer::enable_dover(DOverParams dover) {
  TSF_ASSERT(queue_->empty(), "enable_dover on server " << params_.name()
                                  << " after requests were queued");
  TSF_ASSERT(dover.meta, "enable_dover needs a job-meta callback");
  DOverQueue::Config config;
  config.importance_ratio = dover.importance_ratio;
  // Serving cost c on a bandwidth-limited server takes ~ c * period/capacity
  // of wall-clock virtual time — the scale of the feasibility test.
  config.bandwidth_num = params_.period().count();
  config.bandwidth_den = params_.capacity().count();
  config.now = [this] { return vm_.now(); };
  config.meta = std::move(dover.meta);
  config.on_admit = [this](const Request& r, bool takeover) {
    vm_.trace().record(vm_.now(), common::TraceKind::kAdmit,
                       r.handler->name(), r.release.ticks(),
                       takeover ? std::string_view{"takeover"}
                                : std::string_view{});
    if (takeover) {
      model::ShedEvent ev;
      ev.kind = model::ShedEvent::Kind::kTakeover;
      ev.job = r.handler->name();
      ev.release = r.release;
      ev.at = vm_.now();
      ev.reason = "takeover";
      shed_events_.push_back(std::move(ev));
    }
  };
  config.on_demote = [this](const Request& r) {
    vm_.trace().record(vm_.now(), common::TraceKind::kDemote,
                       r.handler->name(), r.release.ticks());
  };
  config.on_shed = [this](const Request& r, const std::string& reason) {
    record_shed(r, reason);
  };
  queue_ = std::make_unique<DOverQueue>(std::move(config));
  dover_enabled_ = true;
}

void TaskServer::record_shed(const Request& request,
                             const std::string& reason) {
  ++shed_count_;
  model::JobOutcome out;
  out.name = request.handler->name();
  out.release = request.release;
  out.cost = request.handler->cost();
  out.shed = true;
  outcomes_.push_back(std::move(out));
  vm_.trace().record(vm_.now(), common::TraceKind::kShed,
                     request.handler->name(), request.release.ticks(),
                     reason);
  model::ShedEvent ev;
  ev.kind = model::ShedEvent::Kind::kShed;
  ev.job = request.handler->name();
  ev.release = request.release;
  ev.at = vm_.now();
  ev.reason = reason;
  shed_events_.push_back(std::move(ev));
}

void TaskServer::take_pending(const TakeFn& pred, std::vector<Request>* out) {
  const rtsj::AbsoluteTime now = vm_.now();
  queue_->take([&](const Request& r) { return r.release < now && pred(r); },
               out);
}

std::size_t TaskServer::shed_pending(
    const std::vector<std::uint64_t>& handles) {
  std::vector<std::uint64_t> wanted(handles);
  std::sort(wanted.begin(), wanted.end());
  std::vector<Request> taken;
  take_pending(
      [&](const Request& r) {
        return std::binary_search(wanted.begin(), wanted.end(), r.seq);
      },
      &taken);
  // `taken` is in queue order; the ledger follows the decision order.
  std::sort(taken.begin(), taken.end(),
            [](const Request& a, const Request& b) { return a.seq < b.seq; });
  for (const std::uint64_t handle : handles) {
    const auto it = std::lower_bound(
        taken.begin(), taken.end(), handle,
        [](const Request& r, std::uint64_t seq) { return r.seq < seq; });
    if (it != taken.end() && it->seq == handle) record_shed(*it, "overload");
  }
  return taken.size();
}

std::size_t TaskServer::collect_batch(const FitsFn& head_fits,
                                      const BatchFitsFn& follow_fits) {
  batch_.clear();
  const std::size_t limit = static_cast<std::size_t>(params_.batch_limit());
  rtsj::RelativeTime planned = rtsj::RelativeTime::zero();
  while (batch_.size() < limit) {
    std::optional<Request> r =
        batch_.empty()
            ? queue_->pop_fitting(head_fits)
            : queue_->pop_fitting([&](rtsj::RelativeTime cost) {
                return follow_fits(cost, planned);
              });
    if (!r.has_value()) break;
    planned += r->handler->cost();
    batch_.push_back(std::move(*r));
  }
  return batch_.size();
}

TaskServer::DispatchResult TaskServer::dispatch_batch(
    std::size_t count, rtsj::RelativeTime budget) {
  TSF_ASSERT(count >= 1 && count <= batch_.size(),
             "dispatch_batch of " << count << " with " << batch_.size()
                                  << " collected");
  ++dispatches_;
  if (!params_.dispatch_overhead().is_zero()) {
    vm_.work(params_.dispatch_overhead());
  }
  const rtsj::AbsoluteTime batch_t0 = vm_.now();
  // The section reaches its progress through one pointer, so the closure
  // fits std::function's inline buffer and a burst allocates nothing.
  struct Progress {
    std::size_t count;
    std::size_t started;    // members whose label window opened
    std::size_t completed;  // members whose body ran to the end
    rtsj::AbsoluteTime member_t0;
  } progress{count, 0, 0, batch_t0};

  rtsj::Timed timed(vm_, budget);
  rtsj::InterruptibleFn body([this, &progress](rtsj::Timed& t) {
    for (std::size_t i = 0; i < progress.count; ++i) {
      const Request& r = batch_[i];
      // The member's service window carries the handler's label, the way
      // the paper draws h1/h2 execution.
      vm_.set_label(r.handler->name());
      progress.member_t0 = vm_.now();
      progress.started = i + 1;
      r.handler->run_logic(t);
      const rtsj::AbsoluteTime t1 = vm_.now();
      vm_.set_label(params_.name());
      model::JobOutcome out;
      out.name = r.handler->name();
      out.release = r.release;
      out.cost = r.handler->cost();
      out.start = progress.member_t0;
      out.served = true;
      out.completion = t1;
      ++served_;
      // At the member's true instant, after its label window closed; the
      // release instant lets the invariant checker match it to its job.
      vm_.trace().record(t1, common::TraceKind::kComplete,
                         r.handler->name(), r.release.ticks());
      outcomes_.push_back(std::move(out));
      progress.completed = i + 1;
    }
  });
  const bool all = timed.do_interruptible(body);
  const rtsj::AbsoluteTime t_end = vm_.now();
  vm_.set_label(params_.name());

  if (!all) {
    // The member that was running when the budget expired.
    TSF_ASSERT(progress.started == progress.completed + 1,
               "interrupted batch bookkeeping");
    const Request& r = batch_[progress.completed];
    model::JobOutcome out;
    out.name = r.handler->name();
    out.release = r.release;
    out.cost = r.handler->cost();
    out.start = progress.member_t0;
    out.interrupted = true;
    ++interrupted_;
    vm_.trace().record(t_end, common::TraceKind::kAbort,
                       r.handler->name(), r.release.ticks());
    outcomes_.push_back(std::move(out));
    // The unstarted tail never began service: back to the front of the
    // queue, reverse order restoring the original sequence. Exactly-once
    // ledgers are untouched — these requests were neither served nor shed.
    for (std::size_t i = count; i > progress.started; --i) {
      queue_->requeue(std::move(batch_[i - 1]));
    }
  }

  DispatchResult result;
  result.elapsed = t_end - batch_t0;
  result.served = all;
  return result;
}

std::vector<model::JobOutcome> TaskServer::final_outcomes() {
  std::vector<model::JobOutcome> out = outcomes_;
  for (const Request& r : queue_->drain()) {
    model::JobOutcome o;
    o.name = r.handler->name();
    o.release = r.release;
    o.cost = r.handler->cost();
    o.served = false;
    out.push_back(o);
  }
  return out;
}

rtsj::RelativeTime TaskServer::interference(rtsj::RelativeTime window) const {
  if (window <= rtsj::RelativeTime::zero()) return rtsj::RelativeTime::zero();
  const std::int64_t releases =
      (window.count() + params_.period().count() - 1) /
      params_.period().count();
  return params_.capacity() * releases;
}

}  // namespace tsf::core
