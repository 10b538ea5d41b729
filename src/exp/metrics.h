// The paper's §6.1 metrics over a set of runs:
//
//   "We measure the average response time of aperiodics, the
//    interrupted-aperiodics ratio and the served-aperiodics ratio for each
//    execution and simulation. Then we compute for each set the average of
//    the average-response-times (AART), the average of the
//    interrupted-aperiodics ratios (AIR) and the average of the
//    served-aperiodics ratios (ASR)."
#pragma once

#include <cstddef>
#include <vector>

#include "common/sketch.h"
#include "exp/cross_core.h"
#include "model/run_result.h"

namespace tsf::exp {

struct RunMetrics {
  double mean_response_tu = 0.0;  // over served jobs only
  double p99_response_tu = 0.0;   // tail latency over served jobs; 0 if none
  double interrupted_ratio = 0.0;
  double served_ratio = 0.0;
  std::size_t released = 0;
  std::size_t served = 0;
  std::size_t interrupted = 0;
};

struct SetMetrics {
  double aart = 0.0;
  double air = 0.0;
  double asr = 0.0;
  // Quantiles of the served responses pooled across every run in the set
  // (not averages of per-run quantiles — tail latency doesn't average
  // meaningfully). Derived from response_sketch, so two sets' quantiles can
  // be pooled exactly by merging their sketches.
  double p50_response_tu = 0.0;
  double p95_response_tu = 0.0;
  double p99_response_tu = 0.0;
  // Mergeable distribution of every served response in the set. Integer
  // bucket counts merge exactly, which is what lets the shard harness pool
  // per-worker cells into quantiles byte-identical for any --jobs N.
  common::LogSketch response_sketch;
  std::size_t systems = 0;
  std::size_t total_jobs = 0;
};

RunMetrics compute_run_metrics(const model::RunResult& run);

// Averages the per-system metrics. Systems that served nothing contribute
// to AIR/ASR but are excluded from the AART average (their mean response is
// undefined).
SetMetrics compute_set_metrics(const std::vector<model::RunResult>& runs);

// Response-time distribution over the served jobs of one or more runs —
// tail behaviour the paper's AART hides (used by the gateway example and
// the policy ablation).
struct ResponseDistribution {
  std::size_t samples = 0;
  double mean_tu = 0.0;
  double p50_tu = 0.0;
  double p90_tu = 0.0;
  double p99_tu = 0.0;
  double max_tu = 0.0;
};

ResponseDistribution compute_response_distribution(
    const std::vector<model::RunResult>& runs);

// Channel-induced latency of cross-core traffic in a partitioned exec run.
//
// `latency_*`: posted → delivered, over successfully delivered messages.
// This is the cost of epoch synchronization: the spec's channel_latency
// plus the wait for the next epoch boundary (the quantization delay that
// makes the quantum a tuning knob).
//
// `e2e_*`: posted → handler completion on the receiving core, over messages
// whose released job was served before the horizon — the cross-core
// response time a caller actually observes (channel + queueing + service).
// Scheduling-policy records (kPool / kSteal) are counted separately: their
// posted → delivered gap is not wire latency but the time the job waited in
// the shared pool / the victim's queue before the scheduler moved it, so
// they get their own wait distribution instead of polluting `latency_*`.
struct ChannelMetrics {
  std::size_t delivered = 0;
  std::size_t failed = 0;  // unroutable or serverless target
  double latency_mean_tu = 0.0;
  double latency_p50_tu = 0.0;
  double latency_p95_tu = 0.0;
  double latency_p99_tu = 0.0;
  std::size_t e2e_samples = 0;
  double e2e_p50_tu = 0.0;
  double e2e_p95_tu = 0.0;
  double e2e_p99_tu = 0.0;
  // Run-time job movement by the scheduling policy.
  std::size_t pool_dispatches = 0;
  std::size_t steals = 0;
  // Online-rebalancer moves (kRebalance records): cross-core migrations of
  // pending jobs, and online admissions of offline-rejected periodic tasks
  // (from_core == kNoCore). Migrations contribute their queue wait to the
  // sched-wait distribution exactly like steals; admissions (posted ==
  // delivered by construction) do not.
  std::size_t rebalance_migrations = 0;
  std::size_t rebalance_admissions = 0;
  double sched_wait_mean_tu = 0.0;  // over pool dispatches + steals + moves
  double sched_wait_p99_tu = 0.0;
};

// `merged` must be the merged RunResult of the same run the deliveries came
// from (outcome releases are matched against delivery instants by job name).
ChannelMetrics compute_channel_metrics(
    const std::vector<ChannelDelivery>& deliveries,
    const model::RunResult& merged);

}  // namespace tsf::exp
