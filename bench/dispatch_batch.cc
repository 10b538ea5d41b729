// Batched-dispatch throughput: the PR-proving bench for `[run] batch`.
//
// A saturating aperiodic storm (two releases per tu, 0.1tu jobs) hammers a
// deferrable server whose dispatch overhead (0.9tu) dwarfs the job cost —
// the regime the batching tentpole targets. At batch=1 every dispatch pays
// the overhead, so each job costs 1.0tu of wall time against a 0.5tu
// inter-arrival gap and the server falls behind, serving roughly half the
// storm. Batched, the overhead amortizes across the burst (0.9 + 0.1n per
// n jobs keeps up from n = 3) and the server is arrival-bound. Both effects
// are pure virtual-time quantities, so the headline metric — served jobs at
// each batch level and the batch=16/batch=1 speedup — is deterministic and
// gated exactly by bench_gate.
//
// Self-checks (the bench exits non-zero itself):
//   - every batch level is 3-run fingerprint-deterministic;
//   - batch=1 serves something (the baseline is meaningful);
//   - the batch=16 speedup is >= 1.5x (the PR's acceptance floor).
//
// events_per_sec is wall-clock (served jobs per second of run_exec time,
// best of 3) — its committed baseline is a conservative floor, not a
// measured number.
//
//   bench_dispatch_batch [--batch N] [--json FILE]
//
// --batch N adds one extra measured level beyond the standard 1/4/16 sweep.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/trace.h"
#include "exp/bench_cli.h"
#include "exp/exec_runner.h"
#include "model/spec.h"

namespace {

using namespace tsf;

common::Duration tu(std::int64_t n) { return common::Duration::time_units(n); }

// Two 0.1tu jobs per tu against a 4tu/8tu deferrable server: arrivals
// outrun what per-event dispatch (1.0tu wall per job at 0.9tu overhead) can
// serve, while a 16-batch (16 * 0.1 + 0.9 = 2.5tu) drains backlogs whole.
model::SystemSpec storm_spec() {
  model::SystemSpec spec;
  spec.name = "dispatch-batch";
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(4);
  spec.server.period = tu(8);
  spec.server.priority = 30;
  model::PeriodicTaskSpec task;
  task.name = "tau";
  task.period = tu(16);
  task.cost = tu(2);
  task.priority = 10;
  spec.periodic_tasks.push_back(task);
  const std::int64_t horizon_tu = 1500;
  for (std::int64_t j = 0; j < 2 * (horizon_tu - 4); ++j) {
    model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = common::TimePoint::origin() + common::Duration::ticks(
        1000 + j * 500);  // two releases per tu from t=1
    job.cost = common::Duration::ticks(100);  // 0.1tu
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = common::TimePoint::origin() + tu(horizon_tu);
  return spec;
}

struct Level {
  int batch = 1;
  std::uint64_t served = 0;
  double best_seconds = 0.0;
  bool deterministic = true;
};

Level measure(const model::SystemSpec& spec, int batch) {
  exp::ExecOptions options;
  options.dispatch_overhead = common::Duration::ticks(900);  // 0.9tu
  options.poll_overhead = common::Duration::ticks(50);
  options.batch = batch;

  Level level;
  level.batch = batch;
  std::uint64_t fingerprint = 0;
  level.best_seconds = 1e100;
  for (int run = 0; run < 3; ++run) {
    const auto begin = std::chrono::steady_clock::now();
    const model::RunResult result = exp::run_exec(spec, options);
    const auto end = std::chrono::steady_clock::now();
    level.best_seconds = std::min(
        level.best_seconds,
        std::chrono::duration_cast<std::chrono::duration<double>>(end - begin)
            .count());
    std::uint64_t served = 0;
    for (const auto& job : result.jobs) {
      if (job.served) ++served;
    }
    const std::uint64_t fp = common::fingerprint(result.timeline);
    if (run == 0) {
      level.served = served;
      fingerprint = fp;
    } else if (fp != fingerprint || served != level.served) {
      level.deterministic = false;
    }
  }
  return level;
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchCli cli(exp::BenchCli::kJson | exp::BenchCli::kBatch);
  for (int i = 1; i < argc; ++i) {
    if (!cli.consume(argc, argv, &i)) return cli.fail("bench_dispatch_batch");
  }

  std::vector<int> batches = {1, 4, 16};
  if (cli.batch != 1 &&
      std::find(batches.begin(), batches.end(), cli.batch) == batches.end()) {
    batches.push_back(cli.batch);
  }

  const model::SystemSpec spec = storm_spec();
  std::printf("%-8s %10s %12s %14s %s\n", "batch", "served", "events/sec",
              "speedup", "3-run");
  std::vector<Level> levels;
  for (const int batch : batches) {
    levels.push_back(measure(spec, batch));
  }
  const Level& base = levels.front();  // batch = 1
  bool all_deterministic = true;
  bool ok = base.served > 0;
  double speedup16 = 0.0;
  for (const Level& level : levels) {
    all_deterministic = all_deterministic && level.deterministic;
    ok = ok && level.deterministic;
    const double speedup =
        base.served > 0
            ? static_cast<double>(level.served) / static_cast<double>(base.served)
            : 0.0;
    if (level.batch == 16) speedup16 = speedup;
    const double events_per_sec =
        level.best_seconds > 0.0
            ? static_cast<double>(level.served) / level.best_seconds
            : 0.0;
    std::printf("%-8d %10llu %12.3g %13.2fx %s\n", level.batch,
                static_cast<unsigned long long>(level.served), events_per_sec,
                speedup, level.deterministic ? "ok" : "DIVERGED");
  }
  if (speedup16 < 1.5) {
    std::cerr << "self-check failed: batch=16 speedup " << speedup16
              << " < 1.5\n";
    ok = false;
  }
  if (!ok) {
    std::cerr << "self-check failed (see above)\n";
  }

  if (!cli.json_path.empty()) {
    std::vector<bench::Metric> metrics;
    for (const Level& level : levels) {
      metrics.push_back({"served_batch" + std::to_string(level.batch),
                         static_cast<double>(level.served), true});
    }
    metrics.push_back({"speedup_batch16", speedup16, true});
    // Wall clock: the committed baseline is a conservative floor.
    const Level& top = levels[2];  // batch = 16
    metrics.push_back({"events_per_sec_batch16",
                       top.best_seconds > 0.0
                           ? static_cast<double>(top.served) / top.best_seconds
                           : 0.0,
                       true});
    metrics.push_back(
        {"deterministic_ok", all_deterministic ? 1.0 : 0.0, true});
    if (bench::write_json(cli.json_path, "dispatch_batch", metrics) != 0) {
      return 1;
    }
  }
  return ok ? 0 : 1;
}
