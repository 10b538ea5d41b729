// Micro: the multi-core runtime's two selection passes — the k-way merge
// of per-core timelines after a run (mp::merge_results) and the
// rebalancer's re-pack of a drifted backlog at an epoch boundary
// (Partitioner::pack_items on hundreds of requests against near-full bins,
// placing a handful).
//
// Two entry points share the workload definitions:
//   - default: google-benchmark (full statistical output);
//   - --json FILE: a self-timed pass that emits tsf-bench/1 metrics so the
//     bench-regression CI job can gate both passes with bench_gate. The
//     committed baseline values are conservative floors (~20x below a dev
//     machine) that catch a collapse, such as a pass gone quadratic, not
//     drift.
//
//   bench_micro_mp [--json FILE] [google-benchmark flags...]
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mp/mp_system.h"
#include "mp/partition.h"
#include "self_timed.h"

namespace {

using namespace tsf;
using common::TimePoint;
using common::TraceKind;

constexpr std::size_t kMergeRecords = 100000;
constexpr std::size_t kBacklog = 2000;

// Per-core results of a `cores`-core run holding `records` trace records
// in all: record i lands on core i % cores, each core's instants advance
// every other record (so equal instants run within and across cores), and
// entity names look like an exec run's.
struct SyntheticRun {
  model::SystemSpec spec;
  mp::Partition partition;
  std::vector<model::RunResult> per_core;
};

SyntheticRun synthetic_run(int cores, std::size_t records) {
  SyntheticRun run;
  run.spec.name = "micro_mp";
  run.spec.cores = cores;
  run.spec.server.policy = model::ServerPolicy::kNone;
  run.partition = mp::Partitioner().partition(run.spec);
  run.per_core.resize(static_cast<std::size_t>(cores));
  const TraceKind kinds[] = {TraceKind::kRelease, TraceKind::kStart,
                             TraceKind::kPreempt, TraceKind::kResume,
                             TraceKind::kComplete};
  const auto n = static_cast<std::size_t>(cores);
  for (std::size_t i = 0; i < records; ++i) {
    const std::size_t step = i / n;
    const std::string who =
        step % 7 == 0 ? "server" : "h" + std::to_string(step / 5);
    run.per_core[i % n].timeline.record(
        TimePoint::at_ticks(static_cast<std::int64_t>(step / 2)),
        kinds[step % 5], who, static_cast<std::int64_t>(step));
  }
  return run;
}

std::size_t merge(const SyntheticRun& run) {
  return mp::merge_results(run.spec, run.partition, run.per_core)
      .timeline.records()
      .size();
}

// A drifted backlog as the rebalancer hands it over: each request's
// declared cost per server period (mostly a few packet sizes, so many
// ties) against four serving bins loaded near full.
struct Backlog {
  std::vector<mp::PartitionItem> items;
  std::vector<double> loads;
};

Backlog backlog(std::size_t n) {
  Backlog out;
  common::Rng rng(7);
  const double sizes[] = {1.0 / 30.0, 0.05, 0.0667};
  out.items.resize(n);
  for (auto& item : out.items) {
    item.utilization = rng.next_double() < 0.6 ? sizes[rng.uniform_i64(0, 2)]
                                               : rng.uniform(0.01, 0.12);
  }
  out.loads = {0.97, 0.92, 0.99, 0.95};
  return out;
}

std::size_t pack(const mp::Partitioner& packer, const Backlog& b) {
  std::vector<double> loads = b.loads;
  std::size_t placed = 0;
  for (const int bin : packer.pack_items(b.items, loads)) placed += bin >= 0;
  return placed;
}

void BM_MergeResults(benchmark::State& state) {
  const auto run = synthetic_run(static_cast<int>(state.range(0)),
                                 kMergeRecords);
  for (auto _ : state) benchmark::DoNotOptimize(merge(run));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMergeRecords));
}
BENCHMARK(BM_MergeResults)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_PackBacklog(benchmark::State& state) {
  const auto b = backlog(kBacklog);
  const mp::Partitioner packer(mp::PackingStrategy::kWorstFitDecreasing);
  for (auto _ : state) benchmark::DoNotOptimize(pack(packer, b));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBacklog));
}
BENCHMARK(BM_PackBacklog)->Unit(benchmark::kMicrosecond);

// ---- self-timed path (--json): the same workloads, hand-rolled timing ----

int run_json(const std::string& json_path) {
  const auto quad = synthetic_run(4, kMergeRecords);
  const auto uni = synthetic_run(1, kMergeRecords);
  const auto b = backlog(kBacklog);
  const mp::Partitioner packer(mp::PackingStrategy::kWorstFitDecreasing);

  const double merge_quad = bench::items_per_sec(
      kMergeRecords, [&quad] { benchmark::DoNotOptimize(merge(quad)); });
  const double merge_uni = bench::items_per_sec(
      kMergeRecords, [&uni] { benchmark::DoNotOptimize(merge(uni)); });
  const double pack_items = bench::items_per_sec(
      kBacklog, [&] { benchmark::DoNotOptimize(pack(packer, b)); });

  std::printf("merge, 4 cores    %10.3g records/sec\n", merge_quad);
  std::printf("merge, 1 core     %10.3g records/sec\n", merge_uni);
  std::printf("re-pack backlog   %10.3g items/sec (%zu of %zu placed)\n",
              pack_items, pack(packer, b), kBacklog);

  return bench::write_json(
      json_path, "micro_mp",
      {{"merge_4core_records_per_sec", merge_quad, true},
       {"merge_1core_records_per_sec", merge_uni, true},
       {"pack_backlog_items_per_sec", pack_items, true}});
}

}  // namespace

int main(int argc, char** argv) {
  return tsf::bench::run_main(argc, argv, "bench_micro_mp", run_json);
}
