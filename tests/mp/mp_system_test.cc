// Partitioned runtime end-to-end: split/merge, partitioned feasibility
// against per-core RTA, and the bit-reproducibility of multi-core runs.
#include "mp/mp_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rta.h"
#include "common/rng.h"
#include "common/trace.h"
#include "gen/generator.h"
#include "sim/simulator.h"
#include "support/booking_checks.h"

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

// One core may book several records of one (job, release) — a re-fired
// triggered job carries two releases at the same instant — and the merge
// keeps every one: the first fills the job's spec slot, the rest follow
// the spec-ordered block.
TEST(MergeResults, KeepsRepeatedCompletionsAndSameInstantReleases) {
  model::SystemSpec spec;
  spec.name = "repeats";
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

  model::JobOutcome done;
  done.name = "j";
  done.release = at_tu(1);
  done.cost = tu(1);
  done.served = true;
  done.start = at_tu(2);
  done.completion = at_tu(3);
  {
    // Two genuine completions of one re-fired release on one core.
    std::vector<model::RunResult> per_core(2);
    per_core[0].jobs.push_back(done);
    model::JobOutcome again = done;
    again.start = at_tu(3);
    again.completion = at_tu(4);
    per_core[0].jobs.push_back(again);
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 2u)
        << "a genuine repeated completion must be kept";
    EXPECT_EQ(merged.jobs[0].completion, at_tu(3));
    EXPECT_EQ(merged.jobs[1].completion, at_tu(4));
  }
  {
    // One core, two same-instant releases of a re-fired job: one served,
    // one still pending — both are real and both must survive (regression:
    // an unconditional (name, release) dedupe used to swallow the pending
    // one and under-report the released count).
    std::vector<model::RunResult> per_core(2);
    per_core[0].jobs.push_back(done);
    model::JobOutcome pending;
    pending.name = "j";
    pending.release = at_tu(1);
    pending.cost = tu(1);
    per_core[0].jobs.push_back(pending);
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 2u)
        << "same-core same-instant releases are distinct records";
    EXPECT_TRUE(merged.jobs[0].served);
    EXPECT_FALSE(merged.jobs[1].served);
  }
}

// End-to-end: a rebalanced run (drift mode) whose migrated jobs complete on
// their *new* home cores books each moved release on one core only, so the
// merge holds one outcome per (job, release) — for kRebalance moves exactly
// as for steals.
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
  EXPECT_EQ(testing::find_cross_core_booking(run.per_core), "");

  std::map<std::pair<std::string, TimePoint>, std::size_t> outcomes;
  for (const auto& o : run.merged.jobs) ++outcomes[{o.name, o.release}];
  std::set<std::string> migrated;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind != exp::ChannelDelivery::Kind::kRebalance) continue;
    migrated.insert(d.job);
    const auto key = std::make_pair(d.job, d.posted);
    ASSERT_EQ(outcomes[key], 1u)
        << d.job << ": a moved release is booked more than once";
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
  EXPECT_EQ(testing::find_cross_core_booking(run.per_core), "");
  ASSERT_EQ(run.merged.jobs.size(), spec.aperiodic_jobs.size());
  std::set<std::string> names;
  for (const auto& outcome : run.merged.jobs) {
    EXPECT_TRUE(names.insert(outcome.name).second)
        << outcome.name << " merged twice";
    EXPECT_TRUE(outcome.served) << outcome.name;
  }
}

// The timeline merge as it was before the k-way interleave, kept verbatim
// as the reference: concatenate the per-core records in core order with
// their "c<k>/" prefixes, stable-sort by instant, re-record.
common::Timeline stable_sort_merge(
    const std::vector<model::RunResult>& per_core) {
  std::vector<common::TraceRecord> records;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    const std::string prefix = "c" + std::to_string(c) + "/";
    for (const auto& r : per_core[c].timeline.records()) {
      records.push_back(r);
      records.back().who = prefix + r.who;
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const common::TraceRecord& a,
                      const common::TraceRecord& b) { return a.at < b.at; });
  common::Timeline merged;
  for (auto& r : records) {
    merged.record(r.at, r.kind, std::move(r.who), r.value,
                  std::move(r.note));
  }
  return merged;
}

// A string of `length` letters: names and notes on both sides of the
// small-string buffer.
std::string random_text(common::Rng& rng, std::int64_t length) {
  std::string out;
  for (std::int64_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + rng.uniform_i64(0, 25)));
  }
  return out;
}

model::SystemSpec cores_only_spec(int cores) {
  model::SystemSpec spec;
  spec.name = "merge";
  spec.cores = cores;
  spec.server.policy = model::ServerPolicy::kNone;
  spec.horizon = at_tu(10);
  return spec;
}

// The k-way interleave by (instant, core) gives exactly the stable sort's
// order: random per-core timelines, some empty, whose instants advance in
// small steps or not at all, so equal instants run within and across cores.
TEST(MergeResults, MatchesTheStableSortReference) {
  const auto kinds = static_cast<std::int64_t>(common::kTraceKindCount);
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    common::Rng rng(seed);
    const int cores = static_cast<int>(rng.uniform_i64(1, 6));
    const auto spec = cores_only_spec(cores);
    const auto partition = Partitioner().partition(spec);
    std::vector<model::RunResult> per_core(static_cast<std::size_t>(cores));
    for (auto& core : per_core) {
      if (rng.next_double() < 0.2) continue;  // an idle core
      std::int64_t ticks = rng.uniform_i64(0, 3);
      const std::int64_t count = rng.uniform_i64(1, 60);
      for (std::int64_t i = 0; i < count; ++i) {
        if (rng.next_double() < 0.5) ticks += rng.uniform_i64(1, 3);
        const auto kind =
            static_cast<common::TraceKind>(rng.uniform_i64(0, kinds - 1));
        const std::string who = random_text(rng, rng.uniform_i64(1, 24));
        const std::int64_t value = rng.uniform_i64(-5, 5);
        const std::string note = rng.next_double() < 0.5
                                     ? ""
                                     : random_text(rng, rng.uniform_i64(1, 30));
        core.timeline.record(TimePoint::at_ticks(ticks), kind, who, value,
                             note);
      }
    }
    const auto merged = merge_results(spec, partition, per_core);
    const auto want = stable_sort_merge(per_core);
    const auto& got = merged.timeline.records();
    ASSERT_EQ(got.size(), want.records().size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& g = got[i];
      const auto& w = want.records()[i];
      ASSERT_TRUE(g.at == w.at && g.kind == w.kind && g.who == w.who &&
                  g.value == w.value && g.note == w.note)
          << "seed " << seed << ", record " << i << ": got " << g.who << " at "
          << g.at << ", want " << w.who << " at " << w.at;
    }
  }
}

// The merge relies on each core's timeline being in time order; one that
// goes back in time panics, naming the core and the record.
TEST(MergeResultsDeathTest, CoreTraceOutOfTimeOrderPanics) {
  const auto spec = cores_only_spec(2);
  const auto partition = Partitioner().partition(spec);
  std::vector<model::RunResult> per_core(2);
  per_core[0].timeline.record(at_tu(1), common::TraceKind::kRelease, "a");
  per_core[1].timeline.record(at_tu(2), common::TraceKind::kRelease, "b");
  per_core[1].timeline.record(at_tu(5), common::TraceKind::kStart, "b");
  per_core[1].timeline.record(at_tu(3), common::TraceKind::kComplete, "b");
  EXPECT_DEATH(merge_results(spec, partition, per_core),
               "core 1's trace is out of time order: record 2 \\(complete b");
}

// Acceptance: the partitioned RTA verdict must agree with running the
// uniprocessor RTA independently on every split core.
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
      if (expected[i].has_value()) {
        EXPECT_EQ(*got[i], *expected[i]);
      }
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
    SCOPED_TRACE(backend == ExecBackend::kThreads ? "threads" : "lockstep");
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
          << "core " << c;
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
