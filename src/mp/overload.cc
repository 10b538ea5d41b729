#include "mp/overload.h"

#include <algorithm>
#include <utility>

#include "common/diag.h"
#include "exp/cross_core.h"
#include "mp/channel.h"
#include "mp/load_meter.h"
#include "mp/mp_system.h"

namespace tsf::mp {

using common::Duration;
using common::TimePoint;

std::vector<common::InvariantChecker::Violation> check_overload_invariants(
    const model::SystemSpec& spec, const MpRunResult& run) {
  common::InvariantChecker checker;
  for (const auto& job : spec.aperiodic_jobs) {
    checker.add_job(job.name, job.relative_deadline.count());
  }
  // Per-core streams (un-namespaced entity names, already time-ordered).
  for (std::size_t c = 0; c < run.per_core.size(); ++c) {
    checker.set_core(c);
    for (const auto& r : run.per_core[c].timeline.records()) {
      checker.record(r.at, r.kind, r.who, r.value, r.note);
    }
  }
  for (const auto& event : run.merged.shed_events) {
    checker.note_shed_ledger(event.core, event.job, event.release.ticks(),
                             event.kind == model::ShedEvent::Kind::kTakeover);
  }
  return checker.finish();
}

OverloadGovernor::OverloadGovernor(exp::OverloadConfig config,
                                   ChannelFabric& fabric, LoadMeter& meter)
    : config_(std::move(config)), fabric_(fabric), meter_(meter) {
  TSF_ASSERT(config_.mode == exp::OverloadMode::kShed,
             "only mode 'shed' needs a governor");
  TSF_ASSERT(config_.threshold > 0.0, "overload_threshold must be positive");
  TSF_ASSERT(config_.period > Duration::zero(),
             "overload_period must be positive");
  meter_.retain(config_.period);
  meter_.measure(config_.period, &measured_);
}

bool OverloadGovernor::shed_pass() {
  bool ran = false;
  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    exp::CoreEndpoint* endpoint = fabric_.endpoint(c);
    if (endpoint == nullptr || !endpoint->serves_aperiodics()) continue;
    if (measured_[c] <= config_.threshold) continue;
    ran = true;

    candidates_.clear();
    endpoint->sheddable_views(&candidates_);
    if (candidates_.empty()) continue;

    // Budget: the overshoot rate sustained over one measurement window of
    // declared cost. Shedding more would throw away work a <=threshold core
    // could still serve; shedding less leaves the core re-triggering every
    // pass with the same backlog.
    const double overshoot = measured_[c] - config_.threshold;
    const double budget_tu = overshoot * config_.period.to_tu();

    // Lowest value density first: shedding frees the overshoot's worth of
    // declared cost while giving up the least scheduling value — the same
    // value-density ordering D-over's competitive argument is built on.
    // Ties break on (release, name, queue order), so the pass is
    // deterministic. Only the shed prefix is ever ordered: a heap over the
    // candidates' indexes yields them one at a time until the budget is
    // spent.
    const auto sheds_after = [this](std::size_t i, std::size_t j) {
      const exp::PendingView& a = candidates_[i];
      const exp::PendingView& b = candidates_[j];
      const double da = a.value / std::max(1.0, a.declared_cost.to_tu());
      const double db = b.value / std::max(1.0, b.declared_cost.to_tu());
      if (da != db) return da > db;
      if (a.release != b.release) return a.release > b.release;
      if (a.job != b.job) return a.job > b.job;
      return i > j;
    };
    heap_.resize(candidates_.size());
    for (std::size_t i = 0; i < heap_.size(); ++i) heap_[i] = i;
    std::make_heap(heap_.begin(), heap_.end(), sheds_after);
    handles_.clear();  // in decision order
    double removed_tu = 0.0;
    while (!heap_.empty() && removed_tu < budget_tu) {
      std::pop_heap(heap_.begin(), heap_.end(), sheds_after);
      const exp::PendingView& cand = candidates_[heap_.back()];
      heap_.pop_back();
      handles_.push_back(cand.handle);
      removed_tu += cand.declared_cost.to_tu();
    }
    endpoint->shed(handles_);
  }
  return ran;
}

void OverloadGovernor::on_epoch(TimePoint boundary) {
  meter_.measure(config_.period, &measured_);
  if (boundary - last_pass_ < config_.period) return;
  if (shed_pass()) {
    ++passes_;
    last_pass_ = boundary;
  }
}

}  // namespace tsf::mp
