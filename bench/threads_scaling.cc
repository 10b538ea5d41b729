// Real-threads backend scaling: wall-clock throughput of `backend=threads`
// against the lock-step oracle at 1/2/4 cores under the saturating
// aperiodic load of bench_mp_scaling, Deferrable servers.
//
// Before timing anything the bench cross-validates each core count: the
// threads run must serve exactly the lock-step oracle's job set and produce
// an identical trace fingerprint (the backend's contract, enforced in depth
// by tests/mp/backend_equivalence_test.cc). Any divergence fails the bench.
//
// JSON metrics (tsf-bench/1, gated by bench_gate in CI):
//   cores_N/served            deterministic served count — identical across
//                             backends and runs, gated exactly in practice
//   cores_N/equivalent        1 iff threads == oracle (served set + trace)
//   cores_N/threads_events_per_sec
//                             wall-clock trace records/s of the threads run;
//                             the committed baseline is a conservative
//                             floor, not a measurement
#include <chrono>
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
#include "gen/generator.h"
#include "mp/mp_system.h"

namespace {

using namespace tsf;

gen::MpGeneratorParams workload(int cores) {
  gen::MpGeneratorParams p;
  p.cores = cores;
  p.policy = model::ServerPolicy::kDeferrable;
  p.task_density = 6.0;
  p.average_cost_tu = 1.0;
  p.std_deviation_tu = 0.25;
  p.server_capacity = common::Duration::time_units(2);
  p.server_period = common::Duration::time_units(6);
  p.per_core_utilization = 0.3;
  p.tasks_per_core = 4;
  p.horizon_periods = 50;
  p.seed = 1983;
  return p;
}

std::set<std::pair<std::string, std::int64_t>> served_set(
    const model::RunResult& result) {
  std::set<std::pair<std::string, std::int64_t>> served;
  for (const auto& job : result.jobs) {
    if (job.served) {
      served.emplace(job.name,
                     (job.release - common::TimePoint::origin()).count());
    }
  }
  return served;
}

struct Sample {
  int cores = 0;
  std::size_t served = 0;
  std::size_t records = 0;
  bool equivalent = false;
  double lockstep_seconds = 0.0;
  double threads_seconds = 0.0;

  double threads_events_per_sec() const {
    return threads_seconds > 0.0 ? records / threads_seconds : 0.0;
  }
};

double time_run(const model::SystemSpec& spec, const mp::MpRunOptions& options,
                mp::MpRunResult* out) {
  const auto begin = std::chrono::steady_clock::now();
  *out = mp::run(spec, options);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchCli cli(exp::BenchCli::kJson);
  for (int i = 1; i < argc; ++i) {
    if (!cli.consume(argc, argv, &i)) return cli.fail("bench_threads_scaling");
  }
  const std::string& json_path = cli.json_path;
  std::cout << "=== real-threads backend scaling ===\n"
            << "(saturating aperiodic load, Deferrable servers, 50 server"
               " periods; every threads run cross-validated against the"
               " lock-step oracle before timing)\n\n";

  bool ok = true;
  std::vector<Sample> samples;
  common::TextTable table;
  table.add_row({"cores", "served", "records", "equivalent", "lockstep_s",
                 "threads_s", "threads ev/s"});
  for (const int cores : {1, 2, 4}) {
    const auto spec = gen::generate_mp_system(workload(cores));
    mp::MpRunOptions options;
    options.strategy = mp::PackingStrategy::kWorstFitDecreasing;

    options.backend = mp::ExecBackend::kLockstep;
    mp::MpRunResult oracle;
    const double lockstep_seconds = time_run(spec, options, &oracle);

    options.backend = mp::ExecBackend::kThreads;
    mp::MpRunResult threads;
    const double threads_seconds = time_run(spec, options, &threads);

    Sample s;
    s.cores = cores;
    s.served = served_set(oracle.merged).size();
    s.records = threads.merged.timeline.records().size();
    s.equivalent =
        served_set(threads.merged) == served_set(oracle.merged) &&
        common::fingerprint(threads.merged.timeline) ==
            common::fingerprint(oracle.merged.timeline);
    s.lockstep_seconds = lockstep_seconds;
    s.threads_seconds = threads_seconds;
    samples.push_back(s);
    ok = ok && s.equivalent;

    table.add_row({std::to_string(cores), std::to_string(s.served),
                   std::to_string(s.records), s.equivalent ? "yes" : "NO",
                   common::fmt_fixed(lockstep_seconds, 3),
                   common::fmt_fixed(threads_seconds, 3),
                   common::fmt_fixed(s.threads_events_per_sec(), 0)});
  }
  std::cout << table.to_string() << '\n'
            << (ok ? "threads backend equivalent to the oracle at every"
                     " core count\n"
                   : "FAIL: threads backend diverged from the oracle\n");

  if (!json_path.empty()) {
    std::vector<bench::Metric> metrics;
    for (const auto& s : samples) {
      const std::string cores = "cores_" + std::to_string(s.cores) + "/";
      metrics.push_back(
          {cores + "served", static_cast<double>(s.served), true});
      metrics.push_back({cores + "equivalent", s.equivalent ? 1.0 : 0.0, true});
      metrics.push_back(
          {cores + "threads_events_per_sec", s.threads_events_per_sec(), true});
    }
    if (bench::write_json(json_path, "threads_scaling", metrics) != 0) {
      return 1;
    }
  }
  return ok ? 0 : 1;
}
