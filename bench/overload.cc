// Overload storm pack: admission + shedding vs head-in-the-sand — the
// acceptance gate of the overload subsystem (exp/overload.h, mp/overload.h,
// core/dover_queue.h).
//
// Three storm shapes (gen/storms.h) are each run under the three overload
// modes. Per cell: three runs must be bit-reproducible (equal trace
// fingerprints), the forbidden-behavior checker must come back clean, and
// the shed/takeover ledger must reconcile. Per shape, the value-accrual
// ratio against the offline clairvoyant bound (analysis/offline_value.h)
// must order the policies
//
//     dover >= shed >= off
//
// — value-density admission beats utilization-threshold shedding beats
// serving the queue blindly. --json emits the tsf-bench/1 document CI gates
// against bench/baselines/overload.json.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "analysis/offline_value.h"
#include "common/table.h"
#include "common/trace.h"
#include "exp/bench_cli.h"
#include "gen/storms.h"
#include "mp/mp_system.h"
#include "mp/overload.h"

namespace {

using namespace tsf;

common::Duration tu(double x) { return common::Duration::from_tu(x); }

struct Cell {
  double ratio = 0.0;
  double accrued = 0.0;
  std::size_t served = 0;
  std::size_t released = 0;
  std::uint64_t sheds = 0;
  std::uint64_t takeovers = 0;
  bool stable = true;
  std::size_t violations = 0;
};

Cell run_cell(const model::SystemSpec& spec, exp::OverloadMode mode) {
  mp::MpRunOptions options;
  options.quantum = tu(0.5);
  options.exec.overload.mode = mode;
  options.exec.overload.threshold = 0.75;
  options.exec.overload.period = tu(6);

  const auto run = mp::run(spec, options);
  Cell cell;
  const auto fp = common::fingerprint(run.merged.timeline);
  for (int rerun = 0; rerun < 2; ++rerun) {
    const auto again = mp::run(spec, options);
    cell.stable =
        cell.stable && fp == common::fingerprint(again.merged.timeline);
  }
  std::size_t serving = 0;
  for (const auto& core : run.partition.cores) serving += core.has_server;
  const auto accrual =
      analysis::compute_value_accrual(spec, run.merged, serving);
  cell.ratio = accrual.ratio;
  cell.accrued = accrual.accrued;
  for (const auto& job : run.merged.jobs) {
    ++cell.released;
    cell.served += job.served;
  }
  cell.sheds = run.sheds;
  cell.takeovers = run.takeovers;
  cell.violations = mp::check_overload_invariants(spec, run).size();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchCli cli(exp::BenchCli::kJson);
  for (int i = 1; i < argc; ++i) {
    if (!cli.consume(argc, argv, &i)) return cli.fail("bench_overload");
  }
  const std::string& json_path = cli.json_path;

  const gen::StormShape shapes[] = {gen::StormShape::kRouterPacketStorm,
                                    gen::StormShape::kMarketOpenBurst,
                                    gen::StormShape::kCascadingFaultBurst};
  const exp::OverloadMode modes[] = {exp::OverloadMode::kOff,
                                     exp::OverloadMode::kShed,
                                     exp::OverloadMode::kDover};

  std::cout << "=== overload storms: off vs shed vs dover ===\n"
            << "(2 cores, threshold 0.75, period 6tu, quantum 0.5tu; 3 runs"
               " per cell must be fingerprint-identical; value-accrual"
               " ratio vs the offline clairvoyant bound must order"
               " dover >= shed >= off per storm)\n\n";

  bool ok = true;
  common::TextTable table;
  table.add_row({"storm", "mode", "ratio", "served", "sheds", "takeovers",
                 "deterministic", "invariants"});
  struct Row {
    std::string name;
    Cell cell;
  };
  std::vector<Row> rows;
  for (const auto shape : shapes) {
    gen::StormParams params;
    params.shape = shape;
    const auto spec = gen::make_storm(params);
    Cell cells[3];
    for (int m = 0; m < 3; ++m) {
      cells[m] = run_cell(spec, modes[m]);
      const Cell& cell = cells[m];
      table.add_row({gen::to_string(shape), exp::to_string(modes[m]),
                     common::fmt_fixed(cell.ratio, 3),
                     std::to_string(cell.served) + "/" +
                         std::to_string(cell.released),
                     std::to_string(cell.sheds),
                     std::to_string(cell.takeovers),
                     cell.stable ? "yes" : "NO",
                     cell.violations == 0
                         ? "clean"
                         : std::to_string(cell.violations) + " VIOLATIONS"});
      rows.push_back({std::string(gen::to_string(shape)) + "/" +
                          exp::to_string(modes[m]),
                      cell});
      ok = ok && cell.stable && cell.violations == 0;
      if (cell.ratio > 1.0) {
        std::cout << "FAIL: " << gen::to_string(shape) << "/"
                  << exp::to_string(modes[m])
                  << " accrued more than the clairvoyant bound\n";
        ok = false;
      }
    }
    const double off = cells[0].ratio;
    const double shed = cells[1].ratio;
    const double dover = cells[2].ratio;
    if (!(dover >= shed && shed >= off)) {
      std::cout << "FAIL: " << gen::to_string(shape)
                << " value-accrual ordering broken: dover "
                << common::fmt_fixed(dover, 3) << ", shed "
                << common::fmt_fixed(shed, 3) << ", off "
                << common::fmt_fixed(off, 3) << '\n';
      ok = false;
    }
  }
  std::cout << table.to_string() << '\n';
  std::cout << (ok ? "overload: deterministic, invariant-clean, and ordered"
                     " dover >= shed >= off on every storm\n"
                   : "overload: FAILED\n");

  if (!json_path.empty()) {
    std::vector<bench::Metric> metrics;
    for (const auto& row : rows) {
      metrics.push_back({row.name + "/ratio", row.cell.ratio, true});
    }
    if (bench::write_json(json_path, "overload", metrics) != 0) return 1;
  }
  return ok ? 0 : 1;
}
