// Multi-core scaling of the partitioned runtime: served-event throughput at
// 1/2/4/8 cores under a saturating aperiodic load, for the Polling and
// Deferrable policies, on both engines.
//
// The workload offers `density` events per server period PER CORE, sized so
// each core's server replica is always backlogged — throughput is then
// capacity-bound and must grow with the core count. The bench verifies the
// growth is monotonic from 1 to 4 cores (the ISSUE-1 acceptance bar) and
// that every multi-core run is bit-reproducible (equal trace fingerprints
// across two runs).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/table.h"
#include "common/trace.h"
#include "exp/bench_cli.h"
#include "exp/metrics.h"
#include "gen/generator.h"
#include "mp/mp_system.h"

namespace {

using namespace tsf;

gen::MpGeneratorParams workload(int cores, model::ServerPolicy policy) {
  gen::MpGeneratorParams p;
  p.cores = cores;
  p.policy = policy;
  // Saturating: ~6 events x 1tu per 6tu period per core against a 2tu/6tu
  // server replica — three times more demand than serving capacity.
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

struct Sample {
  int cores = 0;
  std::size_t released = 0;
  std::size_t served_sim = 0;
  std::size_t served_exec = 0;
  bool fingerprint_stable = true;
};

std::size_t served_count(const model::RunResult& result) {
  std::size_t served = 0;
  for (const auto& job : result.jobs) served += job.served;
  return served;
}

}  // namespace

int main(int argc, char** argv) {
  // --json FILE: emit the per-(policy, cores) served-event counts in the
  // tsf-bench/1 schema so CI can gate regressions against bench/baselines/.
  exp::BenchCli cli(exp::BenchCli::kJson);
  for (int i = 1; i < argc; ++i) {
    if (!cli.consume(argc, argv, &i)) return cli.fail("bench_mp_scaling");
  }
  const std::string& json_path = cli.json_path;
  std::cout << "=== partitioned multi-core scaling ===\n"
            << "(saturating aperiodic load: 6 ev/period/core x 1tu mean cost"
               " vs a 2tu/6tu server replica per core; 50 server periods;"
               " 1 tu = 1 virtual ms)\n\n";

  bool ok = true;
  std::vector<std::pair<std::string, Sample>> all_samples;
  for (const auto policy :
       {model::ServerPolicy::kPolling, model::ServerPolicy::kDeferrable}) {
    std::cout << "--- " << model::to_string(policy) << " ---\n";
    common::TextTable table;
    table.add_row({"cores", "released", "served(sim)", "ev/s(sim)",
                   "served(exec)", "ev/s(exec)", "speedup(exec)",
                   "deterministic"});
    std::vector<Sample> samples;
    for (const int cores : {1, 2, 4, 8}) {
      const auto spec = gen::generate_mp_system(workload(cores, policy));
      const double horizon_s = (spec.horizon - common::TimePoint::origin())
                                   .to_tu() / 1000.0;  // virtual seconds

      mp::MpRunOptions options;
      options.strategy = mp::PackingStrategy::kWorstFitDecreasing;
      mp::MpRunOptions sim_options = options;
      sim_options.engine = mp::RunEngine::kSim;
      const auto sim_run = mp::run(spec, sim_options);
      const auto exec_run = mp::run(spec, options);
      const auto exec_rerun = mp::run(spec, options);

      Sample s;
      s.cores = cores;
      s.released = spec.aperiodic_jobs.size();
      s.served_sim = served_count(sim_run.merged);
      s.served_exec = served_count(exec_run.merged);
      s.fingerprint_stable =
          common::fingerprint(exec_run.merged.timeline) ==
          common::fingerprint(exec_rerun.merged.timeline);
      samples.push_back(s);
      all_samples.emplace_back(model::to_string(policy), s);

      const double base = static_cast<double>(samples.front().served_exec);
      table.add_row(
          {std::to_string(cores), std::to_string(s.released),
           std::to_string(s.served_sim),
           common::fmt_fixed(static_cast<double>(s.served_sim) / horizon_s, 1),
           std::to_string(s.served_exec),
           common::fmt_fixed(static_cast<double>(s.served_exec) / horizon_s,
                             1),
           common::fmt_fixed(static_cast<double>(s.served_exec) / base, 2),
           s.fingerprint_stable ? "yes" : "NO"});
      ok = ok && s.fingerprint_stable;
    }
    std::cout << table.to_string();

    // Acceptance: throughput grows monotonically from 1 to 4 cores.
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i].cores > 4) continue;
      if (samples[i].served_exec <= samples[i - 1].served_exec ||
          samples[i].served_sim <= samples[i - 1].served_sim) {
        std::cout << "FAIL: throughput did not grow from "
                  << samples[i - 1].cores << " to " << samples[i].cores
                  << " cores\n";
        ok = false;
      }
    }
    std::cout << '\n';
  }
  std::cout << (ok ? "scaling: monotonic 1->4, all runs deterministic\n"
                   : "scaling: FAILED\n");

  if (!json_path.empty()) {
    std::vector<bench::Metric> metrics;
    for (const auto& [policy, s] : all_samples) {
      for (const auto& [metric, count] :
           {std::pair<const char*, std::size_t>{"served_sim", s.served_sim},
            {"served_exec", s.served_exec}}) {
        char name[96];
        std::snprintf(name, sizeof name, "%s/cores_%d/%s", policy.c_str(),
                      s.cores, metric);
        metrics.push_back({name, static_cast<double>(count), true});
      }
    }
    if (bench::write_json(json_path, "mp_scaling", metrics) != 0) return 1;
  }
  return ok ? 0 : 1;
}
