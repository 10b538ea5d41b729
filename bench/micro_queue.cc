// Micro: pending-queue operations, including the §7 claim that the
// list-of-lists structure supports constant-time response-time prediction
// while a FIFO scan is linear in the backlog.
//
// Two entry points share the workload definitions:
//   - default: google-benchmark (full statistical output, Arg sweeps);
//   - --json FILE: a self-timed pass that emits tsf-bench/1 metrics so the
//     bench-regression CI job can gate the queue layer with bench_gate.
//     The committed baseline values are conservative floors (~20x below a
//     dev machine), not measured numbers — wall-clock throughput is the
//     one quantity here that can't be gated exactly.
//
//   bench_micro_queue [--json FILE] [google-benchmark flags...]
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/pending_queue.h"
#include "core/servable_async_event_handler.h"
#include "self_timed.h"

namespace {

using namespace tsf;
using common::Duration;

Duration tu(std::int64_t n) { return Duration::time_units(n); }

std::vector<std::unique_ptr<core::ServableAsyncEventHandler>> make_handlers(
    std::size_t n) {
  std::vector<std::unique_ptr<core::ServableAsyncEventHandler>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<core::ServableAsyncEventHandler>(
        "h" + std::to_string(i), Duration::ticks(500 + 250 * static_cast<std::int64_t>(i % 12)),
        [](rtsj::Timed&) {}));
  }
  return out;
}

void fill(core::PendingQueue& q,
          std::vector<std::unique_ptr<core::ServableAsyncEventHandler>>& hs) {
  for (std::size_t i = 0; i < hs.size(); ++i) {
    core::Request r;
    r.handler = hs[i].get();
    r.seq = i;
    q.push(std::move(r));
  }
}

void BM_PushPop_StrictFifo(benchmark::State& state) {
  auto handlers = make_handlers(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::FifoQueue q(/*first_fit=*/false);
    fill(q, handlers);
    const auto fits = [](Duration) { return true; };
    while (auto r = q.pop_fitting(fits)) benchmark::DoNotOptimize(r->seq);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PushPop_StrictFifo)->Arg(64)->Arg(1024);

void BM_PushPop_ListOfLists(benchmark::State& state) {
  auto handlers = make_handlers(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::ListOfListsQueue q(tu(4));
    fill(q, handlers);
    const auto fits = [](Duration) { return true; };
    while (!q.empty()) {
      q.begin_instance();
      while (auto r = q.pop_fitting(fits)) benchmark::DoNotOptimize(r->seq);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PushPop_ListOfLists)->Arg(64)->Arg(1024);

// First-fit selection cost in a backlog where nothing fits until the tail.
void BM_FirstFitScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto big = make_handlers(n);
  for (auto& h : big) h->set_cost(tu(4));
  core::ServableAsyncEventHandler small("small", Duration::ticks(100),
                                        [](rtsj::Timed&) {});
  core::FifoQueue q(/*first_fit=*/true);
  fill(q, big);
  core::Request r;
  r.handler = &small;
  q.push(r);
  const auto fits = [](Duration cost) { return cost <= tu(1); };
  for (auto _ : state) {
    auto hit = q.pop_fitting(fits);  // scans past every oversized entry
    benchmark::DoNotOptimize(hit);
    q.push(*hit);  // put it back for the next iteration
  }
}
BENCHMARK(BM_FirstFitScan)->Arg(16)->Arg(256)->Arg(4096);

// The §7 placement query: O(1), flat across backlog sizes — contrast with
// the first-fit scan above.
void BM_PlacementQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto handlers = make_handlers(n);
  // Uniform cost 2: two per bucket; the query only inspects the last one.
  for (auto& h : handlers) h->set_cost(tu(2));
  core::ListOfListsQueue q(tu(4));
  fill(q, handlers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.placement_for(tu(2)));
  }
}
BENCHMARK(BM_PlacementQuery)->Arg(16)->Arg(256)->Arg(4096);

// ---- self-timed path (--json): the same workloads, hand-rolled timing ----

int run_json(const std::string& json_path) {
  constexpr std::size_t kBacklog = 1024;
  auto handlers = make_handlers(kBacklog);

  const double fifo_ops = bench::items_per_sec(kBacklog, [&handlers] {
    core::FifoQueue q(/*first_fit=*/false);
    fill(q, handlers);
    const auto fits = [](Duration) { return true; };
    while (auto r = q.pop_fitting(fits)) benchmark::DoNotOptimize(r->seq);
  });

  const double lol_ops = bench::items_per_sec(kBacklog, [&handlers] {
    core::ListOfListsQueue q(tu(4));
    fill(q, handlers);
    const auto fits = [](Duration) { return true; };
    while (!q.empty()) {
      q.begin_instance();
      while (auto r = q.pop_fitting(fits)) benchmark::DoNotOptimize(r->seq);
    }
  });

  // Placement queries against a deep backlog — the §7 O(1) claim.
  auto uniform = make_handlers(4096);
  for (auto& h : uniform) h->set_cost(tu(2));
  core::ListOfListsQueue placement_queue(tu(4));
  fill(placement_queue, uniform);
  const double placement_ops = bench::items_per_sec(1, [&placement_queue] {
    benchmark::DoNotOptimize(placement_queue.placement_for(tu(2)));
  });

  std::printf("fifo push+pop     %10.3g items/sec\n", fifo_ops);
  std::printf("list-of-lists     %10.3g items/sec\n", lol_ops);
  std::printf("placement query   %10.3g ops/sec\n", placement_ops);

  return bench::write_json(json_path, "micro_queue",
                           {{"fifo_items_per_sec", fifo_ops, true},
                            {"list_of_lists_items_per_sec", lol_ops, true},
                            {"placement_queries_per_sec", placement_ops,
                             true}});
}

}  // namespace

int main(int argc, char** argv) {
  return tsf::bench::run_main(argc, argv, "bench_micro_queue", run_json);
}
