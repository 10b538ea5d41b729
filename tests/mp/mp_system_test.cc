// Partitioned runtime end-to-end: split/merge, partitioned feasibility
// against per-core RTA, and the bit-reproducibility of multi-core runs.
#include "mp/mp_system.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "analysis/rta.h"
#include "common/trace.h"
#include "gen/generator.h"
#include "sim/simulator.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

MpRunOptions sim_options() {
  MpRunOptions o;
  o.engine = RunEngine::kSim;
  return o;
}

// The paper's Table-1 scenario workload scaled to `cores`: per core one
// Polling Server replica (3/6), one tau1-class task (2/6) and one
// tau2-class task (1/6) — exactly 1.0 utilization per core — plus two
// h-style aperiodic events per core.
model::SystemSpec scenario_spec(int cores) {
  model::SystemSpec spec;
  spec.name = "scenario";
  spec.cores = cores;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < cores; ++c) {
    model::PeriodicTaskSpec tau1;
    tau1.name = "tau1." + std::to_string(c);
    tau1.period = tu(6);
    tau1.cost = tu(2);
    tau1.priority = 20;
    spec.periodic_tasks.push_back(tau1);
    model::PeriodicTaskSpec tau2;
    tau2.name = "tau2." + std::to_string(c);
    tau2.period = tu(6);
    tau2.cost = tu(1);
    tau2.priority = 10;
    spec.periodic_tasks.push_back(tau2);
  }
  for (int c = 0; c < 2 * cores; ++c) {
    model::AperiodicJobSpec h;
    h.name = "h" + std::to_string(c);
    h.release = at_tu(2 + c);
    h.cost = tu(2);
    spec.aperiodic_jobs.push_back(h);
  }
  spec.horizon = at_tu(18);
  return spec;
}

TEST(SplitSpec, EveryTaskAndJobLandsOnExactlyOneCore) {
  const auto spec = scenario_spec(4);
  const auto partition = Partitioner().partition(spec);
  ASSERT_TRUE(partition.complete());
  const auto subs = split_spec(spec, partition);
  ASSERT_EQ(subs.size(), 4u);
  std::size_t tasks = 0, jobs = 0;
  for (const auto& sub : subs) {
    EXPECT_EQ(sub.cores, 1);
    EXPECT_EQ(sub.horizon, spec.horizon);
    EXPECT_EQ(sub.server.policy, model::ServerPolicy::kPolling);
    tasks += sub.periodic_tasks.size();
    jobs += sub.aperiodic_jobs.size();
  }
  EXPECT_EQ(tasks, spec.periodic_tasks.size());
  EXPECT_EQ(jobs, spec.aperiodic_jobs.size());
}

TEST(SplitSpec, CoreWithoutServerReplicaGetsPolicyNone) {
  model::SystemSpec spec;
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kNone;
  spec.horizon = at_tu(6);
  const auto partition = Partitioner().partition(spec);
  const auto subs = split_spec(spec, partition);
  for (const auto& sub : subs) {
    EXPECT_EQ(sub.server.policy, model::ServerPolicy::kNone);
  }
}

// Acceptance: the partitioned RTA verdict must agree with running the
// uniprocessor RTA independently on every split core.
// Regression for the stealing-era merge: per-core outcomes are no longer
// disjoint. A job stolen mid-run can leave an unserved shadow with the same
// (name, release) on its home core (e.g. a partial bookkeeping path, or a
// steal whose thief recorded the preserved release) — the merge must keep
// the served record and drop the shadow instead of double-counting the job.
TEST(MergeResults, DedupesByJobAndRelease) {
  model::SystemSpec spec;
  spec.name = "dedupe";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  model::AperiodicJobSpec stolen;
  stolen.name = "stolen";
  stolen.release = at_tu(2);
  stolen.cost = tu(1);
  spec.aperiodic_jobs.push_back(stolen);
  model::AperiodicJobSpec local;
  local.name = "local";
  local.release = at_tu(3);
  local.cost = tu(1);
  spec.aperiodic_jobs.push_back(local);
  spec.horizon = at_tu(12);
  const auto partition = Partitioner().partition(spec);

  // Core 0 (the home core) booked "stolen" as unserved at its release;
  // core 1 (the thief) actually served it — same (name, release).
  std::vector<model::RunResult> per_core(2);
  model::JobOutcome shadow;
  shadow.name = "stolen";
  shadow.release = at_tu(2);
  shadow.cost = tu(1);
  per_core[0].jobs.push_back(shadow);
  model::JobOutcome served_local;
  served_local.name = "local";
  served_local.release = at_tu(3);
  served_local.cost = tu(1);
  served_local.served = true;
  served_local.start = at_tu(3);
  served_local.completion = at_tu(4);
  per_core[0].jobs.push_back(served_local);
  model::JobOutcome served_stolen;
  served_stolen.name = "stolen";
  served_stolen.release = at_tu(2);
  served_stolen.cost = tu(1);
  served_stolen.served = true;
  served_stolen.start = at_tu(5);
  served_stolen.completion = at_tu(6);
  per_core[1].jobs.push_back(served_stolen);

  const auto merged = merge_results(spec, partition, per_core);
  ASSERT_EQ(merged.jobs.size(), 2u) << "shadow outcome survived the merge";
  EXPECT_EQ(merged.jobs[0].name, "stolen");
  EXPECT_TRUE(merged.jobs[0].served) << "merge kept the shadow, not the"
                                        " served record";
  EXPECT_EQ(merged.jobs[0].completion, at_tu(6));
  EXPECT_EQ(merged.jobs[1].name, "local");
  EXPECT_TRUE(merged.jobs[1].served);
}

// The dedupe is strictly cross-core: two unserved shadows of one lost
// release on *different* cores collapse to a single record, but within one
// core nothing is merged — two genuine completions of a re-fired release,
// or two same-instant pending releases, are both kept (a core never lies
// about its own bookkeeping).
TEST(MergeResults, KeepsRepeatedCompletionsButCollapsesShadows) {
  model::SystemSpec spec;
  spec.name = "dedupe2";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  model::AperiodicJobSpec job;
  job.name = "j";
  job.release = at_tu(1);
  job.cost = tu(1);
  spec.aperiodic_jobs.push_back(job);
  spec.horizon = at_tu(12);
  const auto partition = Partitioner().partition(spec);

  {
    std::vector<model::RunResult> per_core(2);
    for (auto& result : per_core) {
      model::JobOutcome shadow;
      shadow.name = "j";
      shadow.release = at_tu(1);
      shadow.cost = tu(1);
      result.jobs.push_back(shadow);
    }
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 1u);
    EXPECT_FALSE(merged.jobs[0].served);
  }
  {
    std::vector<model::RunResult> per_core(2);
    for (auto& result : per_core) {
      model::JobOutcome done;
      done.name = "j";
      done.release = at_tu(1);
      done.cost = tu(1);
      done.served = true;
      done.start = at_tu(2);
      done.completion = at_tu(3);
      result.jobs.push_back(done);
    }
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 2u)
        << "a genuine repeated completion must not be deduped";
  }
  {
    // One core, two same-instant releases of a re-fired job: one served,
    // one still pending — both are real and both must survive (regression:
    // an unconditional (name, release) dedupe used to swallow the pending
    // one and under-report the released count).
    std::vector<model::RunResult> per_core(2);
    model::JobOutcome done;
    done.name = "j";
    done.release = at_tu(1);
    done.cost = tu(1);
    done.served = true;
    done.start = at_tu(2);
    done.completion = at_tu(3);
    per_core[0].jobs.push_back(done);
    model::JobOutcome pending;
    pending.name = "j";
    pending.release = at_tu(1);
    pending.cost = tu(1);
    per_core[0].jobs.push_back(pending);
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 2u)
        << "same-core same-instant releases are distinct, not shadows";
    EXPECT_TRUE(merged.jobs[0].served);
    EXPECT_FALSE(merged.jobs[1].served);
  }
}

// End-to-end: a rebalanced run (drift mode) whose migrated jobs complete on
// their *new* home cores leaves no unserved shadow in the merge — the
// (job, release) dedupe holds for kRebalance moves exactly as for steals.
TEST(MergeResults, RebalancedJobCompletingOnNewHomeLeavesNoShadow) {
  model::SystemSpec spec;
  spec.name = "rebalance_dedupe";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int b = 0; b < 6; ++b) {
    for (int j = 0; j < 6; ++j) {
      model::AperiodicJobSpec job;
      job.name = "b" + std::to_string(b) + "_" + std::to_string(j);
      job.release =
          TimePoint::origin() + Duration::from_tu(1.0 + 8.0 * b + 0.05 * j);
      job.cost = Duration::from_tu(j % 2 == 0 ? 2.0 : 0.25);
      spec.aperiodic_jobs.push_back(job);
    }
  }
  spec.horizon = at_tu(65);  // 1 + 8 * 6 bursts + 16 drain

  MpRunOptions options;
  options.strategy = PackingStrategy::kWorstFitDecreasing;
  options.quantum = Duration::from_tu(0.5);
  options.rebalance.mode = RebalanceMode::kDrift;
  options.rebalance.drift = 0.15;
  options.rebalance.period = tu(6);
  const auto run = mp::run(spec, options);
  ASSERT_GT(run.rebalance_migrations, 0u)
      << "the workload must actually trigger rebalance migrations";

  std::map<std::pair<std::string, TimePoint>, std::size_t> outcomes;
  for (const auto& o : run.merged.jobs) ++outcomes[{o.name, o.release}];
  std::set<std::string> migrated;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind != exp::ChannelDelivery::Kind::kRebalance) continue;
    migrated.insert(d.job);
    const auto key = std::make_pair(d.job, d.posted);
    ASSERT_EQ(outcomes[key], 1u)
        << d.job << ": the home core's unserved shadow survived the merge";
  }
  EXPECT_FALSE(migrated.empty());
  // And at least one migrated job was actually served on its new home.
  std::size_t served_after_move = 0;
  for (const auto& o : run.merged.jobs) {
    if (migrated.count(o.name) > 0 && o.served) ++served_after_move;
  }
  EXPECT_GT(served_after_move, 0u);
}

// End-to-end: a semi-partitioned run with a real steal produces exactly one
// outcome per job and books the stolen job as served.
TEST(MergeResults, StolenJobHasExactlyOneMergedOutcome) {
  model::SystemSpec spec;
  spec.name = "steal_e2e";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int j = 0; j < 6; ++j) {
    model::AperiodicJobSpec job;
    job.name = "b" + std::to_string(j);
    job.release = TimePoint::origin() + Duration::from_tu(1.0 + 0.05 * j);
    job.cost = Duration::from_tu(j % 2 == 0 ? 1.5 : 0.25);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(24);

  MpRunOptions options;
  options.policy = SchedPolicy::kSemiPartitioned;
  options.quantum = Duration::from_tu(0.5);
  const auto run = mp::run(spec, options);
  ASSERT_GT(run.steals, 0u) << "workload must actually trigger a steal";
  ASSERT_EQ(run.merged.jobs.size(), spec.aperiodic_jobs.size());
  std::set<std::string> names;
  for (const auto& outcome : run.merged.jobs) {
    EXPECT_TRUE(names.insert(outcome.name).second)
        << outcome.name << " merged twice";
    EXPECT_TRUE(outcome.served) << outcome.name;
  }
}

TEST(MpFeasibility, AgreesWithPerCoreSingleVmRta) {
  gen::MpGeneratorParams params;
  params.cores = 4;
  params.tasks_per_core = 4;
  params.per_core_utilization = 0.45;
  params.task_density = 1.0;
  const auto spec = gen::generate_mp_system(params);

  const auto verdict = analyze(spec, PackingStrategy::kWorstFitDecreasing);
  ASSERT_TRUE(verdict.partition.complete());
  const auto subs = split_spec(spec, verdict.partition);
  ASSERT_EQ(verdict.per_core.cores.size(), subs.size());

  bool all_cores_feasible = true;
  for (std::size_t c = 0; c < subs.size(); ++c) {
    const model::ServerSpec* server =
        subs[c].server.policy == model::ServerPolicy::kNone
            ? nullptr
            : &subs[c].server;
    const auto expected =
        analysis::response_times(subs[c].periodic_tasks, server);
    const auto& got = verdict.per_core.cores[c].response_times;
    ASSERT_EQ(got.size(), expected.size());
    bool core_feasible = true;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i].has_value(), expected[i].has_value());
      if (expected[i].has_value()) EXPECT_EQ(*got[i], *expected[i]);
      core_feasible = core_feasible && expected[i].has_value();
    }
    EXPECT_EQ(verdict.per_core.cores[c].feasible, core_feasible);
    all_cores_feasible = all_cores_feasible && core_feasible;
  }
  EXPECT_EQ(verdict.feasible, all_cores_feasible);
}

TEST(MpFeasibility, RejectionMakesSystemInfeasible) {
  auto spec = scenario_spec(2);
  model::PeriodicTaskSpec hog;
  hog.name = "hog";
  hog.period = tu(6);
  hog.cost = tu(7);  // u > 1
  spec.periodic_tasks.push_back(hog);
  const auto verdict = analyze(spec);
  EXPECT_FALSE(verdict.partition.complete());
  EXPECT_FALSE(verdict.feasible);
  // The placed cores can still each be feasible.
  EXPECT_TRUE(verdict.per_core.feasible);
}

// Acceptance: a partitioned 4-core run of the paper's scenario workload
// completes deterministically — same trace hash across two runs, on both
// engines.
TEST(MpRun, FourCoreScenarioIsDeterministic) {
  const auto spec = scenario_spec(4);
  const auto sim1 = mp::run(spec, sim_options());
  const auto sim2 = mp::run(spec, sim_options());
  EXPECT_EQ(common::fingerprint(sim1.merged.timeline),
            common::fingerprint(sim2.merged.timeline));
  ASSERT_EQ(sim1.merged.jobs.size(), sim2.merged.jobs.size());

  const auto exec1 = mp::run(spec);
  const auto exec2 = mp::run(spec);
  const auto hash1 = common::fingerprint(exec1.merged.timeline);
  const auto hash2 = common::fingerprint(exec2.merged.timeline);
  EXPECT_NE(exec1.merged.timeline.records().size(), 0u);
  EXPECT_EQ(hash1, hash2);
  ASSERT_EQ(exec1.merged.jobs.size(), exec2.merged.jobs.size());
  for (std::size_t i = 0; i < exec1.merged.jobs.size(); ++i) {
    EXPECT_EQ(exec1.merged.jobs[i].served, exec2.merged.jobs[i].served);
    EXPECT_EQ(exec1.merged.jobs[i].completion,
              exec2.merged.jobs[i].completion);
  }
}

TEST(MpRun, MergedJobsKeepSpecOrderAndEntitiesAreNamespaced) {
  const auto spec = scenario_spec(2);
  const auto run = mp::run(spec);
  ASSERT_EQ(run.merged.jobs.size(), spec.aperiodic_jobs.size());
  for (std::size_t i = 0; i < spec.aperiodic_jobs.size(); ++i) {
    EXPECT_EQ(run.merged.jobs[i].name, spec.aperiodic_jobs[i].name);
  }
  bool saw_c0 = false, saw_c1 = false;
  for (const auto& who : run.merged.timeline.entities()) {
    saw_c0 = saw_c0 || who.rfind("c0/", 0) == 0;
    saw_c1 = saw_c1 || who.rfind("c1/", 0) == 0;
  }
  EXPECT_TRUE(saw_c0);
  EXPECT_TRUE(saw_c1);
}

// On the exactly-schedulable scenario the periodic tasks never miss, on
// any core, under either engine — the partitioned runtime preserves the
// paper's uniprocessor guarantees core-by-core.
TEST(MpRun, ScenarioPeriodicsMeetDeadlinesOnAllCores) {
  const auto spec = scenario_spec(4);
  const auto exec = mp::run(spec);
  EXPECT_FALSE(exec.merged.periodic_jobs.empty());
  for (const auto& p : exec.merged.periodic_jobs) {
    EXPECT_FALSE(p.deadline_missed) << p.task;
  }
}

// With a registry attached, mp.core.<k>.utilization is core k's busy
// fraction of the horizon: the busy intervals of all its entities, summed.
TEST(MpRun, UtilizationGaugeIsEachCoresBusyFraction) {
  const auto spec = scenario_spec(2);
  for (const auto backend : {ExecBackend::kLockstep, ExecBackend::kThreads}) {
    common::MetricsRegistry registry;
    MpRunOptions options;
    options.backend = backend;
    options.metrics = &registry;
    const auto run = mp::run(spec, options);
    const double horizon_ticks =
        static_cast<double>((spec.horizon - TimePoint::origin()).count());
    ASSERT_EQ(run.per_core.size(), 2u);
    for (std::size_t c = 0; c < run.per_core.size(); ++c) {
      const auto& timeline = run.per_core[c].timeline;
      std::int64_t busy = 0;
      for (const auto& who : timeline.entities()) {
        for (const auto& iv : timeline.busy_intervals(who)) {
          busy += (iv.end - iv.begin).count();
        }
      }
      EXPECT_GT(busy, 0) << "core " << c << " never ran";
      EXPECT_EQ(registry.gauge("mp.core." + std::to_string(c) +
                               ".utilization"),
                static_cast<double>(busy) / horizon_ticks)
          << to_string(backend) << " core " << c;
    }
  }
}

// Partitioned sim of a 1-core spec must match the plain simulator: the mp
// layer adds routing and namespacing, not behaviour.
TEST(MpRun, OneCorePartitionedSimMatchesUniprocessorSim) {
  auto spec = scenario_spec(1);
  const auto mp_run = mp::run(spec, sim_options());
  const auto flat = sim::simulate(spec);
  ASSERT_EQ(mp_run.merged.jobs.size(), flat.jobs.size());
  for (std::size_t i = 0; i < flat.jobs.size(); ++i) {
    EXPECT_EQ(mp_run.merged.jobs[i].served, flat.jobs[i].served);
    EXPECT_EQ(mp_run.merged.jobs[i].completion, flat.jobs[i].completion);
  }
}

}  // namespace
}  // namespace tsf::mp
