#include "exp/metrics.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace tsf::exp {

RunMetrics compute_run_metrics(const model::RunResult& run) {
  RunMetrics m;
  common::Accumulator responses;
  common::QuantileReservoir tail;  // exact: runs are small
  for (const auto& job : run.jobs) {
    ++m.released;
    if (job.served) {
      ++m.served;
      responses.add(job.response().to_tu());
      tail.add(job.response().to_tu());
    }
    if (job.interrupted) ++m.interrupted;
  }
  m.mean_response_tu = responses.mean();
  m.p99_response_tu = tail.p99();
  if (m.released > 0) {
    m.interrupted_ratio = static_cast<double>(m.interrupted) /
                          static_cast<double>(m.released);
    m.served_ratio =
        static_cast<double>(m.served) / static_cast<double>(m.released);
  }
  return m;
}

SetMetrics compute_set_metrics(const std::vector<model::RunResult>& runs) {
  SetMetrics set;
  common::Accumulator aart, air, asr;
  for (const auto& run : runs) {
    const RunMetrics m = compute_run_metrics(run);
    ++set.systems;
    set.total_jobs += m.released;
    if (m.served > 0) aart.add(m.mean_response_tu);
    if (m.released > 0) {
      air.add(m.interrupted_ratio);
      asr.add(m.served_ratio);
    }
    for (const auto& job : run.jobs) {
      if (job.served) set.response_sketch.add(job.response().to_tu());
    }
  }
  set.aart = aart.mean();
  set.air = air.mean();
  set.asr = asr.mean();
  set.p50_response_tu = set.response_sketch.p50();
  set.p95_response_tu = set.response_sketch.p95();
  set.p99_response_tu = set.response_sketch.p99();
  return set;
}

ResponseDistribution compute_response_distribution(
    const std::vector<model::RunResult>& runs) {
  common::Accumulator acc;
  common::QuantileReservoir quantiles;
  for (const auto& run : runs) {
    for (const auto& job : run.jobs) {
      if (job.served) {
        acc.add(job.response().to_tu());
        quantiles.add(job.response().to_tu());
      }
    }
  }
  ResponseDistribution d;
  d.samples = acc.count();
  if (acc.empty()) return d;
  d.mean_tu = acc.mean();
  d.p50_tu = quantiles.p50();
  d.p90_tu = quantiles.quantile(0.90);
  d.p99_tu = quantiles.p99();
  d.max_tu = acc.max();
  return d;
}

ChannelMetrics compute_channel_metrics(
    const std::vector<ChannelDelivery>& deliveries,
    const model::RunResult& merged) {
  ChannelMetrics m;
  common::Accumulator latency;
  common::QuantileReservoir latency_q;
  common::QuantileReservoir e2e_q;
  common::Accumulator sched_wait;
  common::QuantileReservoir sched_wait_q;

  // A channel delivery at instant t released its job at t (the fire lands
  // straight in the server's pending queue), so match (name, release ==
  // delivered) to find the served completion for end-to-end time. Pool
  // dispatches and steals are *not* channel messages: their posted →
  // completion span equals the job's ordinary response time (the outcome
  // keeps the original release), which the response distribution already
  // reports — so they contribute only their counts and wait distribution
  // here, never to latency_* or e2e_*.
  std::map<std::string, std::vector<const model::JobOutcome*>> outcomes;
  for (const auto& job : merged.jobs) outcomes[job.name].push_back(&job);

  for (const auto& d : deliveries) {
    if (d.kind == ChannelDelivery::Kind::kShed) {
      ++m.sheds;
      continue;
    }
    if (d.kind == ChannelDelivery::Kind::kTakeover) {
      ++m.takeovers;
      continue;
    }
    if (d.kind == ChannelDelivery::Kind::kPool ||
        d.kind == ChannelDelivery::Kind::kSteal ||
        d.kind == ChannelDelivery::Kind::kRebalance) {
      // A failed pool dispatch (no serving core anywhere) is a scheduler
      // placement failure, not a channel failure — it must not inflate the
      // 'cross-core channels: N failed' line. The job stays visible as an
      // unserved outcome in the merged result.
      if (!d.ok) continue;
      if (d.kind == ChannelDelivery::Kind::kPool) ++m.pool_dispatches;
      if (d.kind == ChannelDelivery::Kind::kSteal) ++m.steals;
      if (d.kind == ChannelDelivery::Kind::kRebalance) {
        // from_core == kNoCore marks an online admission (no queue wait by
        // construction); anything else is a pending-job migration.
        if (d.from_core == ChannelDelivery::kNoCore) {
          ++m.rebalance_admissions;
          continue;
        }
        ++m.rebalance_migrations;
      }
      sched_wait.add(d.latency().to_tu());
      sched_wait_q.add(d.latency().to_tu());
      continue;
    }
    if (!d.ok) {
      ++m.failed;
      continue;
    }
    ++m.delivered;
    latency.add(d.latency().to_tu());
    latency_q.add(d.latency().to_tu());
    auto it = outcomes.find(d.job);
    if (it == outcomes.end()) continue;
    auto& candidates = it->second;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i]->release == d.delivered && candidates[i]->served) {
        e2e_q.add((candidates[i]->completion - d.posted).to_tu());
        ++m.e2e_samples;
        // Consume the outcome so two same-instant deliveries of one job
        // don't both claim it.
        candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  m.latency_mean_tu = latency.mean();
  m.latency_p50_tu = latency_q.p50();
  m.latency_p95_tu = latency_q.p95();
  m.latency_p99_tu = latency_q.p99();
  m.e2e_p50_tu = e2e_q.p50();
  m.e2e_p95_tu = e2e_q.p95();
  m.e2e_p99_tu = e2e_q.p99();
  m.sched_wait_mean_tu = sched_wait.mean();
  m.sched_wait_p99_tu = sched_wait_q.p99();
  return m;
}

}  // namespace tsf::exp
