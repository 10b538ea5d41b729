// Micro: virtual-machine engine costs — fiber handoffs, timer processing,
// and work slicing under kernel interference.
//
// Two entry points share the workload definitions:
//   - default: google-benchmark (full statistical output, Arg sweeps);
//   - --json FILE: a self-timed pass that emits tsf-bench/1 metrics so the
//     bench-regression CI job can gate the VM layer with bench_gate. The
//     throughput baselines are conservative floors (~20x below a dev
//     machine) that catch a collapse, not drift; the context-switch counts
//     are deterministic and gated exactly.
//
//   bench_micro_vm [--json FILE] [google-benchmark flags...]
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "rtsj/vm/vm.h"
#include "self_timed.h"

namespace {

using namespace tsf;
using namespace tsf::rtsj::vm;
using tsf::common::Duration;
using tsf::common::TimePoint;

// Two alternating fibers: each round is two context switches plus two
// sleep timers. Returns the VM's context switches.
std::uint64_t fiber_ping_pong(std::int64_t rounds) {
  VirtualMachine m;
  auto body = [&m](std::int64_t phase) {
    return [&m, phase] {
      for (;;) {
        m.work(Duration::ticks(100));
        m.sleep_until(m.now() + Duration::ticks(100 + phase));
      }
    };
  };
  m.start_fiber(m.create_fiber("a", 10, body(0)));
  m.start_fiber(m.create_fiber("b", 10, body(50)));
  m.run_until(TimePoint::origin() + Duration::ticks(200 * rounds));
  return m.context_switches();
}

// Timer throughput: n timers fired through one run. Returns how many fired.
std::int64_t timer_drain(std::int64_t n) {
  VirtualMachine m;
  std::int64_t fired = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    m.schedule_silent(TimePoint::origin() + Duration::ticks(i + 1),
                      [&fired] { ++fired; });
  }
  m.run_until(TimePoint::origin() + Duration::ticks(n + 1));
  return fired;
}

// A long work() sliced by periodic kernel timers: measures the engine's
// event-slicing overhead (the hot path of every table experiment). Returns
// the VM's context switches.
std::uint64_t work_sliced_by_timers(std::int64_t slices) {
  VirtualMachine m;
  Fiber* f = m.create_fiber("w", 10, [&m, slices] {
    m.work(Duration::ticks(10 * slices));
  });
  m.start_fiber(f);
  for (std::int64_t i = 1; i < slices; ++i) {
    m.schedule_silent(TimePoint::origin() + Duration::ticks(10 * i), [] {});
  }
  m.run_until(TimePoint::origin() + Duration::ticks(10 * slices + 1));
  return m.context_switches();
}

void BM_FiberPingPong(benchmark::State& state) {
  const std::int64_t rounds = state.range(0);
  for (auto _ : state) benchmark::DoNotOptimize(fiber_ping_pong(rounds));
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_FiberPingPong)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_TimerDrain(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) benchmark::DoNotOptimize(timer_drain(n));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimerDrain)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_WorkSlicedByTimers(benchmark::State& state) {
  const std::int64_t slices = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(work_sliced_by_timers(slices));
  }
  state.SetItemsProcessed(state.iterations() * slices);
}
BENCHMARK(BM_WorkSlicedByTimers)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// ---- self-timed path (--json): the same workloads, hand-rolled timing ----

int run_json(const std::string& json_path) {
  constexpr std::int64_t kRounds = 1000;
  constexpr std::int64_t kTimers = 100000;
  constexpr std::int64_t kSlices = 1000;

  const std::uint64_t ping_pong_switches = fiber_ping_pong(kRounds);
  const std::uint64_t sliced_switches = work_sliced_by_timers(kSlices);
  const double ping_pong_rounds = bench::items_per_sec(
      kRounds, [] { benchmark::DoNotOptimize(fiber_ping_pong(kRounds)); });
  const double timers = bench::items_per_sec(
      kTimers, [] { benchmark::DoNotOptimize(timer_drain(kTimers)); });
  const double slices = bench::items_per_sec(kSlices, [] {
    benchmark::DoNotOptimize(work_sliced_by_timers(kSlices));
  });

  std::printf("fiber ping-pong   %10.3g rounds/sec (%llu switches)\n",
              ping_pong_rounds,
              static_cast<unsigned long long>(ping_pong_switches));
  std::printf("timer drain       %10.3g timers/sec\n", timers);
  std::printf("sliced work       %10.3g slices/sec (%llu switches)\n", slices,
              static_cast<unsigned long long>(sliced_switches));

  return bench::write_json(
      json_path, "micro_vm",
      {{"fiber_ping_pong_rounds_per_sec", ping_pong_rounds, true},
       {"fiber_ping_pong_context_switches",
        static_cast<double>(ping_pong_switches), false},
       {"timer_drain_timers_per_sec", timers, true},
       {"work_sliced_slices_per_sec", slices, true},
       {"work_sliced_context_switches", static_cast<double>(sliced_switches),
        false}});
}

}  // namespace

int main(int argc, char** argv) {
  return tsf::bench::run_main(argc, argv, "bench_micro_vm", run_json);
}
