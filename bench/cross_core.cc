// Channel-induced latency of cross-core event fires vs. the lock-step
// quantum of mp::MultiVm.
//
// Cross-core messages are delivered only at epoch boundaries, so on top of
// the spec's channel_latency every message waits out the remainder of its
// epoch — an average of ~quantum/2 and a worst case approaching the full
// quantum. This bench makes that quantization delay measurable: a fixed
// ping/pong workload (handlers on core 0 fire triggered jobs on core 1) is
// run at several quanta and the delivered-message latency distribution
// (p50/p95/p99) plus the end-to-end cross-core response time are reported.
// The quantum is thereby a tuning knob with a visible cost curve: small
// epochs approximate a shared-memory machine, large epochs amortize
// synchronization but stretch the channel tail.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/table.h"
#include "common/trace.h"
#include "exp/bench_cli.h"
#include "exp/metrics.h"
#include "mp/mp_system.h"

namespace {

using namespace tsf;

common::Duration tu(double x) { return common::Duration::from_tu(x); }

// Two cores, a deferrable replica each, and a stream of ping jobs on core 0
// whose completions fire triggered pong jobs pinned to core 1.
model::SystemSpec ping_pong_spec(int pairs) {
  model::SystemSpec spec;
  spec.name = "cross_core_bench";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < 2; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(2);
    t.priority = 10;
    t.affinity = c;
    spec.periodic_tasks.push_back(t);
  }
  for (int i = 0; i < pairs; ++i) {
    model::AperiodicJobSpec ping;
    ping.name = "ping" + std::to_string(i);
    ping.release = common::TimePoint::origin() + tu(1.0 + 5.0 * i);
    ping.cost = tu(0.5);
    ping.affinity = 0;
    ping.fires = "pong" + std::to_string(i);
    spec.aperiodic_jobs.push_back(ping);

    model::AperiodicJobSpec pong;
    pong.name = "pong" + std::to_string(i);
    pong.triggered = true;
    pong.cost = tu(0.5);
    pong.affinity = 1;
    spec.aperiodic_jobs.push_back(pong);
  }
  spec.horizon =
      common::TimePoint::origin() + tu(1.0 + 5.0 * pairs + 20.0);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  // --json FILE: emit the per-quantum latency quantiles in the tsf-bench/1
  // schema so CI can gate regressions against bench/baselines/.
  exp::BenchCli cli(exp::BenchCli::kJson);
  for (int i = 1; i < argc; ++i) {
    if (!cli.consume(argc, argv, &i)) return cli.fail("bench_cross_core");
  }
  const std::string& json_path = cli.json_path;
  constexpr int kPairs = 40;
  const auto spec = ping_pong_spec(kPairs);
  const auto partition =
      mp::Partitioner(mp::PackingStrategy::kWorstFitDecreasing)
          .partition(spec);

  std::cout << "=== cross-core channel latency vs lock-step quantum ===\n"
            << "(" << kPairs << " ping->pong pairs across 2 cores;"
               " channel_latency 0; latency = fire post to delivery;"
               " e2e = post to pong completion)\n\n";

  common::TextTable table;
  table.add_row({"quantum", "delivered", "lat p50", "lat p95", "lat p99",
                 "e2e p50", "e2e p99", "deterministic"});
  bool ok = true;
  std::vector<double> p99s;
  std::vector<std::pair<double, exp::ChannelMetrics>> sweep;
  for (const double quantum : {0.125, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    mp::MpRunOptions options;
    options.quantum = tu(quantum);
    const auto run = mp::run(spec, partition, options);
    const auto rerun = mp::run(spec, partition, options);
    const bool stable = common::fingerprint(run.merged.timeline) ==
                        common::fingerprint(rerun.merged.timeline);
    const auto ch =
        exp::compute_channel_metrics(run.channel_deliveries, run.merged);

    table.add_row({common::to_string(tu(quantum)),
                   std::to_string(ch.delivered),
                   common::fmt_fixed(ch.latency_p50_tu, 3),
                   common::fmt_fixed(ch.latency_p95_tu, 3),
                   common::fmt_fixed(ch.latency_p99_tu, 3),
                   common::fmt_fixed(ch.e2e_p50_tu, 3),
                   common::fmt_fixed(ch.e2e_p99_tu, 3),
                   stable ? "yes" : "NO"});
    ok = ok && stable && ch.delivered == kPairs;
    p99s.push_back(ch.latency_p99_tu);
    sweep.emplace_back(quantum, ch);
  }
  std::cout << table.to_string() << '\n';

  // Acceptance: the channel tail must track the quantum — the largest epoch
  // strictly worse than the smallest, and no shrink anywhere in between.
  for (std::size_t i = 1; i < p99s.size(); ++i) {
    if (p99s[i] + 1e-9 < p99s[i - 1]) {
      std::cout << "FAIL: latency p99 shrank when the quantum grew\n";
      ok = false;
    }
  }
  if (!p99s.empty() && p99s.back() <= p99s.front()) {
    std::cout << "FAIL: latency p99 flat across a 32x quantum sweep\n";
    ok = false;
  }
  std::cout << (ok ? "cross-core: latency tail tracks the quantum,"
                     " all runs deterministic\n"
                   : "cross-core: FAILED\n");

  if (!json_path.empty()) {
    std::vector<bench::Metric> metrics;
    for (const auto& [quantum, ch] : sweep) {
      char prefix[64];
      std::snprintf(prefix, sizeof prefix, "quantum_%g/", quantum);
      const std::string q = prefix;
      metrics.push_back(
          {q + "delivered", static_cast<double>(ch.delivered), true});
      metrics.push_back({q + "latency_p50_tu", ch.latency_p50_tu, false});
      metrics.push_back({q + "latency_p95_tu", ch.latency_p95_tu, false});
      metrics.push_back({q + "latency_p99_tu", ch.latency_p99_tu, false});
      metrics.push_back({q + "e2e_p99_tu", ch.e2e_p99_tu, false});
    }
    if (bench::write_json(json_path, "cross_core", metrics) != 0) return 1;
  }
  return ok ? 0 : 1;
}
