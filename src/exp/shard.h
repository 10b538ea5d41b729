// Sharded experiment harness: the paper's tables and the ablation grids are
// grids of independent cells (one parameter set under one policy and mode),
// so they parallelize perfectly. A WorkUnit is one cell; run_units runs the
// cells on a few threads that take cell indices from one shared counter and
// write each result into its own slot, so the results come back in
// canonical cell order, bit-identical to a serial run regardless of thread
// count or completion order — the property the paper-tables CI job checks
// byte-for-byte on the JSON. Each cell builds its own worlds on the thread
// that runs it; cells share nothing but the read-only unit list.
//
// Generation is hoisted out of the measured region: each cell first
// materializes its systems (recording gen_seconds), then runs them
// (run_seconds), and digests the generated specs so callers can assert that
// every shard layout generated exactly the same systems.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/tables.h"

namespace tsf::exp {

// One independent cell of an experiment grid.
struct WorkUnit {
  // Names the cell in errors, progress and JSON, e.g. "table2/(1,0)".
  std::string label;
  gen::GeneratorParams params;
  Mode mode = Mode::kSimulation;
  ExecOptions exec_options;
  // When set, applied to every generated spec before the run (the §7
  // interruption-avoidance margin the ablation sweeps).
  std::optional<common::Duration> admission_margin;
  // Test hook for the failure path: run_cell throws instead of running the
  // cell.
  bool crash_for_test = false;
};

struct CellResult {
  SetMetrics metrics;
  // FNV-1a over every generated spec (names, releases, costs, server,
  // tasks): equal digests mean equal workloads, however the cells were
  // sharded.
  std::uint64_t spec_digest = 0;
  // Untimed-vs-timed split: generating the systems vs running them.
  double gen_seconds = 0.0;
  double run_seconds = 0.0;
};

struct ShardOptions {
  // Threads running cells, the calling thread included (never more than
  // there are cells); 1 runs every cell on the calling thread.
  int jobs = 1;
};

struct ShardOutcome {
  bool ok = false;
  // Human-readable failure naming the first failing cell in unit order.
  std::string error;
  // One result per unit, in unit order. Only meaningful when ok.
  std::vector<CellResult> cells;
};

// Deterministic digest of one spec's workload-defining fields.
std::uint64_t digest_spec(const model::SystemSpec& spec);

// Runs one cell on the calling thread: generate (untimed), run, measure.
// Throws on a crash_for_test unit.
CellResult run_cell(const WorkUnit& unit);

// Runs every unit and returns results in unit order. A cell that throws
// fails the whole run (ok == false) with the first failing cell in unit
// order named in `error`; cells not yet started then never start. A cell
// that panics aborts the process, and the panic message names the cell.
ShardOutcome run_units(const std::vector<WorkUnit>& units,
                       const ShardOptions& options = {});

}  // namespace tsf::exp
