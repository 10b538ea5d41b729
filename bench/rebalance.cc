// Online rebalancing vs the static partition on a drifting workload — the
// acceptance gate of the rebalancing layer (mp/rebalance.h).
//
// The scenario: bursts of six unpinned jobs whose round-robin routing (name
// order) sends every heavy job to core 0 and every light one to core 1.
// Core 0 is thereby *offered* more aperiodic work per server period than
// its replica was packed for — measured utilization drifts above the packed
// one and its queue grows — while core 1 idles between bursts. Exactly the
// static-mapping rigidity ROADMAP's "load rebalancing" item (and Pinho's
// open-issues survey) names.
//
// Three runs per mode must be bit-reproducible (equal trace fingerprints);
// with `rebalance = drift` the p99 response time must beat the static
// partition, and every migration must appear exactly once in the channel
// ledger as a kRebalance record. --json emits the tsf-bench/1 document CI
// gates against bench/baselines/rebalance.json.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <utility>
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

model::SystemSpec drift_spec(int bursts) {
  model::SystemSpec spec;
  spec.name = "rebalance_bench";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(3);
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
  for (int b = 0; b < bursts; ++b) {
    for (int j = 0; j < 6; ++j) {
      model::AperiodicJobSpec job;
      job.name = "b" + std::to_string(b) + "_" + std::to_string(j);
      job.release = common::TimePoint::origin() + tu(1.0 + 8.0 * b + 0.05 * j);
      // Even slots heavy, odd light: round-robin in name order piles every
      // heavy job onto core 0.
      job.cost = (j % 2 == 0) ? tu(2.0) : tu(0.25);
      spec.aperiodic_jobs.push_back(job);
    }
  }
  spec.horizon = common::TimePoint::origin() + tu(1.0 + 8.0 * bursts + 16);
  return spec;
}

struct Cell {
  exp::ResponseDistribution response;
  std::size_t served = 0;
  std::size_t released = 0;
  std::uint64_t migrations = 0;
  std::uint64_t passes = 0;
  bool stable = true;
  bool ledger_ok = true;
  std::vector<double> utilization;
};

Cell run_cell(const model::SystemSpec& spec, mp::RebalanceMode mode) {
  mp::MpRunOptions options;
  options.strategy = mp::PackingStrategy::kWorstFitDecreasing;
  options.quantum = tu(0.5);
  options.rebalance.mode = mode;
  options.rebalance.drift = 0.15;
  options.rebalance.period = tu(6);

  const auto run = mp::run(spec, options);
  Cell cell;
  cell.stable = true;
  const auto fp = common::fingerprint(run.merged.timeline);
  for (int rerun = 0; rerun < 2; ++rerun) {
    const auto again = mp::run(spec, options);
    cell.stable = cell.stable &&
                  fp == common::fingerprint(again.merged.timeline);
  }
  cell.response = exp::compute_response_distribution({run.merged});
  for (const auto& job : run.merged.jobs) {
    ++cell.released;
    cell.served += job.served;
  }
  cell.migrations = run.rebalance_migrations;
  cell.passes = run.rebalance_passes;
  cell.utilization = run.rebalance_utilization;

  // Ledger contract: every migration exactly once, as kRebalance.
  std::uint64_t records = 0;
  std::set<std::pair<std::string, common::TimePoint>> seen;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind != exp::ChannelDelivery::Kind::kRebalance) continue;
    ++records;
    cell.ledger_ok = cell.ledger_ok && d.ok &&
                     d.from_core != d.to_core &&
                     seen.insert({d.job, d.posted}).second;
  }
  cell.ledger_ok = cell.ledger_ok && records == run.rebalance_migrations;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchCli cli(exp::BenchCli::kJson);
  for (int i = 1; i < argc; ++i) {
    if (!cli.consume(argc, argv, &i)) return cli.fail("bench_rebalance");
  }
  const std::string& json_path = cli.json_path;

  constexpr int kBursts = 10;
  const auto spec = drift_spec(kBursts);
  std::cout << "=== online rebalancing vs static partition (drift scenario)"
               " ===\n"
            << "(" << kBursts << " skewed bursts across 2 cores; rebalance"
               " drift 0.15, period 6tu, quantum 0.5tu; 3 runs per mode"
               " must be fingerprint-identical)\n\n";

  const Cell off = run_cell(spec, mp::RebalanceMode::kOff);
  const Cell drift = run_cell(spec, mp::RebalanceMode::kDrift);

  common::TextTable table;
  table.add_row({"rebalance", "served", "p50", "p90", "p99", "max",
                 "migrations", "passes", "deterministic"});
  const auto row = [&table](const char* label, const Cell& cell) {
    table.add_row({label,
                   std::to_string(cell.served) + "/" +
                       std::to_string(cell.released),
                   common::fmt_fixed(cell.response.p50_tu, 2),
                   common::fmt_fixed(cell.response.p90_tu, 2),
                   common::fmt_fixed(cell.response.p99_tu, 2),
                   common::fmt_fixed(cell.response.max_tu, 2),
                   std::to_string(cell.migrations),
                   std::to_string(cell.passes),
                   cell.stable ? "yes" : "NO"});
  };
  row("off", off);
  row("drift", drift);
  std::cout << table.to_string() << '\n';
  if (!drift.utilization.empty()) {
    std::cout << "post-rebalance utilization:";
    for (std::size_t c = 0; c < drift.utilization.size(); ++c) {
      std::cout << " c" << c << "="
                << common::fmt_fixed(drift.utilization[c], 3);
    }
    std::cout << '\n';
  }

  bool ok = off.stable && drift.stable;
  if (!ok) std::cout << "FAIL: runs are not fingerprint-identical\n";
  if (drift.migrations == 0) {
    std::cout << "FAIL: the drift scenario triggered no migrations\n";
    ok = false;
  }
  if (!drift.ledger_ok) {
    std::cout << "FAIL: migrations and kRebalance ledger records disagree\n";
    ok = false;
  }
  if (drift.response.p99_tu >= off.response.p99_tu) {
    std::cout << "FAIL: rebalanced p99 ("
              << common::fmt_fixed(drift.response.p99_tu, 2)
              << "tu) does not beat static partitioned p99 ("
              << common::fmt_fixed(off.response.p99_tu, 2) << "tu)\n";
    ok = false;
  } else {
    std::cout << "rebalanced p99 " << common::fmt_fixed(drift.response.p99_tu, 2)
              << "tu beats static partitioned p99 "
              << common::fmt_fixed(off.response.p99_tu, 2) << "tu ("
              << drift.migrations << " migrations, " << drift.passes
              << " passes)\n";
  }
  if (drift.served < off.served) {
    std::cout << "FAIL: rebalancing served fewer jobs than the static"
                 " partition\n";
    ok = false;
  }
  std::cout << (ok ? "rebalance: deterministic, ledgered, and faster than"
                     " the static partition\n"
                   : "rebalance: FAILED\n");

  if (!json_path.empty()) {
    const std::vector<bench::Metric> metrics = {
        {"static/p99_tu", off.response.p99_tu, false},
        {"static/served", static_cast<double>(off.served), true},
        {"rebalanced/p99_tu", drift.response.p99_tu, false},
        {"rebalanced/p50_tu", drift.response.p50_tu, false},
        {"rebalanced/served", static_cast<double>(drift.served), true},
        {"rebalanced/migrations", static_cast<double>(drift.migrations),
         true},
    };
    if (bench::write_json(json_path, "rebalance", metrics) != 0) return 1;
  }
  return ok ? 0 : 1;
}
