// Seeded inputs of the three benchmark workloads.
//
// uni_stream and storm_quad are generated in memory, written as .tsf spec
// files and read back through cli::load_spec_file, so the benchmark feeds
// the program exactly what a tsf_run user would. paper_grid is the paper's
// §6 Tables 2-5 as exp::WorkUnits for exp::run_units, the path tsf_tables
// takes. Everything is a pure function of the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/shard.h"
#include "model/spec.h"

namespace perfbench {

namespace model = tsf::model;

// The seed a claim is developed against, and the held-out seed it is
// re-checked on. Both have pinned outputs in pins.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 2;

// Workload sizes (README.md records why and the scaling hazards).
inline constexpr int kUniStreamPeriods = 40000;
inline constexpr int kStormCores = 4;
inline constexpr int kStormPeriods = 250;
inline constexpr double kStormOverload = 2.5;
inline constexpr std::size_t kGridSystemsPerCell = 1500;
// Exec systems of the grid's sampled cell (threads_s, value_ratio and the
// traced world-lifecycle split).
inline constexpr std::size_t kGridSampleSystems = 1000;

// The [run] section of a generated spec file.
struct RunSection {
  std::string mode = "both";
  std::string overheads = "paper";
  int cores = 1;
  std::string partition;  // empty: not written
  std::string policy;
  std::string quantum;
  std::string rebalance;
  std::string overload;
};

struct FileInput {
  model::SystemSpec spec;  // as generated
  std::string text;        // the .tsf file content
};

// One core: polling server 3/6 (priority 30), tau1 2/6 (priority 20), a
// Poisson stream of 1.5 events per server period with cost N(1, 0.5)
// floored at 0.1 tu, paper overheads, kUniStreamPeriods server periods.
FileInput make_uni_stream(std::uint64_t seed);

// gen::make_storm's router storm on kStormCores cores at kStormOverload,
// with fire chains: every control packet (value 8x cost) fires a triggered,
// soft 0.2-tu ack job pinned round-robin to a core. Semi-partitioned
// scheduling, drift rebalancing, shedding, quantum 0.5, worst-fit packing.
FileInput make_storm_quad(std::uint64_t seed);

// The paper's Tables 2-5 as 24 cells: six (density, sd) sets x {polling,
// deferrable} x {sim, exec with paper overheads}, each cell
// kGridSystemsPerCell systems of ten server periods drawn from `seed`.
std::vector<tsf::exp::WorkUnit> make_paper_grid(std::uint64_t seed);

// The grid's sampled exec cell: the first kGridSampleSystems systems of
// the densest, most variable deferrable-server cell.
std::vector<model::SystemSpec> make_grid_sample(std::uint64_t seed);

// Spec-file text for `spec` plus `run`. Durations print as exact milli-tu
// decimals and values with 17 significant digits, so parsing recovers the
// spec bit for bit.
std::string to_spec_text(const model::SystemSpec& spec, const RunSection& run);

// Field-by-field differences between a generated and a loaded spec; empty
// when they are equal. The name is not part of the file format and is
// skipped.
std::vector<std::string> spec_differences(const model::SystemSpec& generated,
                                          const model::SystemSpec& loaded);

}  // namespace perfbench
