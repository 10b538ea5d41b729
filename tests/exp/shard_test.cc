// The sharded experiment harness: merged results must be bit-identical to
// the serial run for every thread count, generated workloads must be
// identical however the cells are sharded, a throwing cell must fail the
// run with the first failing cell named, and a panicking cell must name
// itself in the panic message.
#include "exp/shard.h"

#include <string>
#include <vector>

#include "common/sketch.h"
#include "gtest/gtest.h"

namespace tsf::exp {
namespace {

// A small mixed grid: cheap simulation cells next to expensive execution
// cells, so dynamic work distribution actually reorders completions.
std::vector<WorkUnit> small_grid() {
  std::vector<WorkUnit> units;
  for (const auto& set : {PaperSet{1, 0}, PaperSet{2, 2}, PaperSet{3, 2}}) {
    for (const Mode mode : {Mode::kSimulation, Mode::kExecution}) {
      WorkUnit unit;
      unit.label = std::string(to_string(mode)) + "/(" +
                   std::to_string(static_cast<int>(set.density)) + "," +
                   std::to_string(static_cast<int>(set.std_deviation)) + ")";
      unit.params = paper_generator_params(set, model::ServerPolicy::kPolling);
      unit.params.nb_generation = 3;  // keep the suite fast
      unit.mode = mode;
      if (mode == Mode::kExecution) {
        unit.exec_options = paper_execution_options();
      }
      units.push_back(std::move(unit));
    }
  }
  return units;
}

void expect_identical(const CellResult& a, const CellResult& b,
                      const std::string& label) {
  // Bitwise equality: every cell runs the same code on the same inputs
  // whichever thread takes it, so any difference at all is a determinism
  // bug.
  EXPECT_EQ(a.metrics.aart, b.metrics.aart) << label;
  EXPECT_EQ(a.metrics.air, b.metrics.air) << label;
  EXPECT_EQ(a.metrics.asr, b.metrics.asr) << label;
  EXPECT_EQ(a.metrics.p50_response_tu, b.metrics.p50_response_tu) << label;
  EXPECT_EQ(a.metrics.p95_response_tu, b.metrics.p95_response_tu) << label;
  EXPECT_EQ(a.metrics.p99_response_tu, b.metrics.p99_response_tu) << label;
  EXPECT_EQ(a.metrics.systems, b.metrics.systems) << label;
  EXPECT_EQ(a.metrics.total_jobs, b.metrics.total_jobs) << label;
  EXPECT_TRUE(a.metrics.response_sketch == b.metrics.response_sketch) << label;
  EXPECT_EQ(a.spec_digest, b.spec_digest) << label;
}

TEST(ShardHarness, WorkerCountsProduceIdenticalResults) {
  const auto units = small_grid();
  ShardOptions serial;
  serial.jobs = 1;
  const ShardOutcome baseline = run_units(units, serial);
  ASSERT_TRUE(baseline.ok) << baseline.error;
  ASSERT_EQ(baseline.cells.size(), units.size());

  for (const int jobs : {2, 8}) {
    ShardOptions options;
    options.jobs = jobs;
    const ShardOutcome sharded = run_units(units, options);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    ASSERT_EQ(sharded.cells.size(), units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
      expect_identical(baseline.cells[i], sharded.cells[i],
                       units[i].label + " @ jobs=" + std::to_string(jobs));
    }
  }
}

TEST(ShardHarness, PooledSketchQuantilesIdenticalAcrossWorkerCounts) {
  // The reason the sketch exists: cross-cell quantiles pooled by exact
  // bucket merge must be bitwise identical however the cells were sharded.
  const auto units = small_grid();
  ShardOptions serial;
  serial.jobs = 1;
  const ShardOutcome baseline = run_units(units, serial);
  ASSERT_TRUE(baseline.ok) << baseline.error;
  common::LogSketch expected;
  for (const auto& cell : baseline.cells) {
    expected.merge(cell.metrics.response_sketch);
  }
  ASSERT_GT(expected.count(), 0u);

  for (const int jobs : {2, 8}) {
    ShardOptions options;
    options.jobs = jobs;
    const ShardOutcome sharded = run_units(units, options);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    common::LogSketch pooled;
    for (const auto& cell : sharded.cells) {
      pooled.merge(cell.metrics.response_sketch);
    }
    EXPECT_TRUE(pooled == expected) << "jobs=" << jobs;
    EXPECT_EQ(pooled.p50(), expected.p50()) << "jobs=" << jobs;
    EXPECT_EQ(pooled.p99(), expected.p99()) << "jobs=" << jobs;
  }
}

TEST(ShardHarness, GenerationIsDeterministicPerCell) {
  auto units = small_grid();
  const CellResult once = run_cell(units[0]);
  const CellResult twice = run_cell(units[0]);
  EXPECT_EQ(once.spec_digest, twice.spec_digest);
  EXPECT_NE(once.spec_digest, 0u);

  // The digest actually depends on the workload.
  WorkUnit reseeded = units[0];
  reseeded.params.seed = 4242;
  EXPECT_NE(run_cell(reseeded).spec_digest, once.spec_digest);
}

TEST(ShardHarness, RunPaperTableMatchesLegacySerialPath) {
  // The harness-based run_paper_table must reproduce the pre-harness
  // behaviour exactly: per-cell metrics equal to run_set on the same
  // parameters (generation hoisting must not change the workload).
  const PaperTable table = run_paper_table(model::ServerPolicy::kPolling,
                                           Mode::kSimulation);
  const auto sets = paper_sets();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const SetMetrics direct = run_set(
        paper_generator_params(sets[i], model::ServerPolicy::kPolling),
        Mode::kSimulation);
    EXPECT_EQ(table.cells[i].aart, direct.aart) << i;
    EXPECT_EQ(table.cells[i].air, direct.air) << i;
    EXPECT_EQ(table.cells[i].asr, direct.asr) << i;
    EXPECT_EQ(table.cells[i].p99_response_tu, direct.p99_response_tu) << i;
    EXPECT_NE(table.spec_digests[i], 0u) << i;
  }
}

WorkUnit poisoned_unit(const std::string& label) {
  WorkUnit bomb;
  bomb.label = label;
  bomb.crash_for_test = true;  // run_cell throws before it generates
  return bomb;
}

TEST(ShardHarness, ThrowingCellFailsTheRunNamingTheCell) {
  // Two throwing cells: whichever thread fails first, the error names the
  // one that comes first in unit order.
  for (const int jobs : {1, 2, 8}) {
    auto units = small_grid();
    units.insert(units.begin() + 4, poisoned_unit("second-bomb"));
    units.insert(units.begin() + 1, poisoned_unit("first-bomb"));
    ShardOptions options;
    options.jobs = jobs;
    const ShardOutcome outcome = run_units(units, options);
    EXPECT_FALSE(outcome.ok) << "jobs=" << jobs;
    EXPECT_NE(outcome.error.find("first-bomb"), std::string::npos)
        << "jobs=" << jobs << ": " << outcome.error;
    EXPECT_EQ(outcome.error.find("second-bomb"), std::string::npos)
        << "jobs=" << jobs << ": " << outcome.error;
  }
}

TEST(ShardHarnessDeathTest, PanickingCellNamesItself) {
  // A negative task density trips the generator's own assertion: a real
  // panic on whichever thread runs the cell, not a test hook.
  for (const int jobs : {1, 2}) {
    auto units = small_grid();
    WorkUnit bad = units[0];
    bad.label = "negative-density-cell";
    bad.params.task_density = -1.0;
    units.insert(units.begin() + 1, bad);
    ShardOptions options;
    options.jobs = jobs;
    EXPECT_DEATH(run_units(units, options),
                 "negative task density.*negative-density-cell")
        << "jobs=" << jobs;
  }
}

TEST(ShardHarness, EmptyUnitListSucceeds) {
  const ShardOutcome outcome = run_units({}, ShardOptions{});
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.cells.empty());
}

}  // namespace
}  // namespace tsf::exp
