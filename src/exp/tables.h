// Reproduction driver for the paper's Tables 2-5: six parameter sets
// (taskDensity, stdDeviation) in {1,2,3} x {0,2}, ten systems each,
// seed 1983, ten server periods — under one policy and one mode.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/exec_runner.h"
#include "exp/metrics.h"
#include "gen/generator.h"
#include "model/spec.h"

namespace tsf::exp {

enum class Mode {
  kSimulation,  // tsf::sim — the theoretical policies
  kExecution,   // tsf::rtsj + tsf::core — the implemented policies
};

const char* to_string(Mode mode);

struct PaperSet {
  double density = 1.0;
  double std_deviation = 0.0;
};

// The paper's six sets, in table order: (1,0) (2,0) (3,0) (1,2) (2,2) (3,2).
std::array<PaperSet, 6> paper_sets();

// GeneratorParams for one set, with the paper's fixed parameters
// (averageCost 3, capacity 4, period 6, nbGeneration 10, seed 1983).
gen::GeneratorParams paper_generator_params(const PaperSet& set,
                                            model::ServerPolicy policy);

// Runs one set and computes its metrics.
SetMetrics run_set(const gen::GeneratorParams& params, Mode mode,
                   const ExecOptions& exec_options = {});

struct WorkUnit;      // exp/shard.h — one cell of an experiment grid
struct ShardOptions;  // exp/shard.h — how many threads run the cells

// Runs all six sets and renders the table in the paper's layout (AART/AIR/
// ASR rows; two banks of three columns).
struct PaperTable {
  std::string title;
  std::array<SetMetrics, 6> cells;
  // Per-cell digest of the generated systems (exp::digest_spec over the
  // cell's ten specs): identical digests across worker counts prove the
  // shards ran the same workloads.
  std::array<std::uint64_t, 6> spec_digests{};
  // Harness timing split: generating systems vs running them, summed over
  // the cells (wall-clock; never part of the machine-readable output).
  double gen_seconds = 0.0;
  double run_seconds = 0.0;
};

// The table's six cells as harness work units, labelled "<id>/(d,sd)".
std::vector<WorkUnit> paper_table_units(const std::string& table_id,
                                        model::ServerPolicy policy, Mode mode,
                                        const ExecOptions& exec_options = {});

// Runs the six cells through the sharded harness (on the calling thread by
// default) and assembles the table. Panics on a harness failure, naming the
// failing cell.
PaperTable run_paper_table(model::ServerPolicy policy, Mode mode,
                           const ExecOptions& exec_options = {});
PaperTable run_paper_table(model::ServerPolicy policy, Mode mode,
                           const ExecOptions& exec_options,
                           const ShardOptions& shard);
std::string format_paper_table(const PaperTable& table);

}  // namespace tsf::exp
