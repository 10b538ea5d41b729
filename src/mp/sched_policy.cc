#include "mp/sched_policy.h"

#include <algorithm>

#include "common/diag.h"
#include "mp/channel.h"

namespace tsf::mp {

using common::TimePoint;

const char* to_string(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kPartitioned:
      return "partitioned";
    case SchedPolicy::kGlobal:
      return "global";
    case SchedPolicy::kSemiPartitioned:
      return "semi-partitioned";
  }
  return "?";
}

std::optional<SchedPolicy> parse_sched_policy(const std::string& text) {
  if (text == "partitioned") return SchedPolicy::kPartitioned;
  if (text == "global") return SchedPolicy::kGlobal;
  if (text == "semi" || text == "semi-partitioned") {
    return SchedPolicy::kSemiPartitioned;
  }
  return std::nullopt;
}

SchedPolicyEngine::SchedPolicyEngine(SchedPolicy policy, ChannelFabric& fabric)
    : policy_(policy), fabric_(fabric) {}

void SchedPolicyEngine::add_pool_job(exp::MigratedJob job, TimePoint release) {
  TSF_ASSERT(policy_ == SchedPolicy::kGlobal,
             "the shared ready pool exists only under the global policy");
  // Fires targeting this job before its dispatch must wait for the bind,
  // not fail: the job has no core yet, but it will get one.
  fabric_.expect(job.name);
  PoolEntry entry;
  entry.job = std::move(job);
  entry.release = release;
  pool_.push_back(std::move(entry));
}

void SchedPolicyEngine::on_epoch(TimePoint boundary) {
  switch (policy_) {
    case SchedPolicy::kPartitioned:
      break;  // nothing to do; the engine is normally not even constructed
    case SchedPolicy::kGlobal:
      drain_pool(boundary);
      break;
    case SchedPolicy::kSemiPartitioned:
      steal_pass(boundary);
      break;
  }
}

void SchedPolicyEngine::drain_pool(TimePoint boundary) {
  // Due jobs leave the pool in priority order; each goes to the serving
  // core with the shallowest pending queue at that moment. deliver_job
  // pushes into the target's pending queue synchronously (the VMs are
  // paused), so one boundary's earlier dispatches are visible as load to
  // its later ones — the pool self-balances within a single drain.
  std::vector<std::size_t> due;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (!pool_[i].dispatched && pool_[i].release <= boundary) due.push_back(i);
  }
  std::sort(due.begin(), due.end(), [this](std::size_t a, std::size_t b) {
    return exp::schedules_before(
        pool_[a].job.effective_value(), pool_[a].release, pool_[a].job.name,
        pool_[b].job.effective_value(), pool_[b].release, pool_[b].job.name);
  });

  for (std::size_t i : due) {
    PoolEntry& entry = pool_[i];
    const std::size_t chosen = fabric_.least_loaded_serving_core();
    entry.dispatched = true;
    exp::ChannelDelivery d;
    d.kind = exp::ChannelDelivery::Kind::kPool;
    d.job = entry.job.name;
    d.posted = entry.release;
    if (chosen == exp::ChannelDelivery::kNoCore) {
      // No serving core anywhere: terminal failure, like a migration's.
      fabric_.record(std::move(d));
      continue;
    }
    fabric_.endpoint(chosen)->deliver_job(entry.job, entry.release);
    // The job now has a home: later fires can route to it.
    fabric_.bind(chosen, entry.job.name);
    d.to_core = chosen;
    d.delivered = boundary;
    d.ok = true;
    ++pool_dispatches_;
    fabric_.record(std::move(d));
  }
}

void SchedPolicyEngine::steal_pass(TimePoint boundary) {
  // Thieves in core order; at most one steal per thief per boundary (keeps
  // the pass cheap and prevents one idle core from emptying a victim whose
  // own server would have drained the queue next epoch anyway). Victims in
  // decreasing-depth order (ties to the lowest core id) and only when at
  // least two requests are pending, so the victim always keeps local work.
  for (std::size_t thief = 0; thief < fabric_.cores(); ++thief) {
    exp::CoreEndpoint* taker = fabric_.endpoint(thief);
    if (taker == nullptr || !taker->serves_aperiodics()) continue;
    if (taker->queue_depth() != 0) continue;

    std::vector<std::pair<std::size_t, std::size_t>> victims;  // (depth, core)
    for (std::size_t core = 0; core < fabric_.cores(); ++core) {
      if (core == thief) continue;
      exp::CoreEndpoint* endpoint = fabric_.endpoint(core);
      if (endpoint == nullptr || !endpoint->serves_aperiodics()) continue;
      const std::size_t depth = endpoint->queue_depth();
      if (depth >= 2) victims.emplace_back(depth, core);
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    for (const auto& [depth, victim] : victims) {
      // The victim's highest-priority stealable request, removed by handle.
      exp::CoreEndpoint* source = fabric_.endpoint(victim);
      std::vector<exp::PendingView> views;
      source->stealable_views(&views);
      if (views.empty()) continue;  // nothing eligible; next victim
      auto stolen = source->steal(views[exp::first_scheduled(views)].handle);
      if (!stolen.has_value()) continue;
      taker->deliver_job(stolen->job, stolen->release);
      ++steals_;
      exp::ChannelDelivery d;
      d.kind = exp::ChannelDelivery::Kind::kSteal;
      d.job = stolen->job.name;
      d.from_core = victim;
      d.to_core = thief;
      d.posted = stolen->release;
      d.delivered = boundary;
      d.ok = true;
      fabric_.record(std::move(d));
      break;  // this thief is no longer idle
    }
  }
}

std::size_t SchedPolicyEngine::pool_pending() const {
  std::size_t n = 0;
  for (const auto& entry : pool_) n += entry.dispatched ? 0 : 1;
  return n;
}

}  // namespace tsf::mp
