// MultiVm epoch semantics: advancing N per-core VMs to shared epoch
// boundaries must be observationally identical to running each core's VM on
// its own, and must be insensitive to the epoch size — on both steppers.
#include "mp/multi_vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/trace.h"
#include "mp/channel.h"
#include "mp/mp_system.h"
#include "mp/partition.h"
#include "support/artifact_dump.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

model::SystemSpec two_core_spec() {
  model::SystemSpec spec;
  spec.name = "mv";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < 2; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(3);
    t.priority = 10;
    spec.periodic_tasks.push_back(t);
  }
  for (int j = 0; j < 6; ++j) {
    model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = at_tu(1 + 3 * j);
    job.cost = tu(1);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(24);
  return spec;
}

// One MultiVm over `subs` with a fresh fabric and no boundary stages.
std::vector<model::RunResult> run_machine(
    const std::vector<model::SystemSpec>& subs, TimePoint horizon,
    Duration quantum, ExecBackend backend) {
  ChannelFabric fabric(subs.size());
  MultiVm machine(subs, exp::ExecOptions{}, fabric);
  machine.run(horizon, quantum, backend);
  return machine.collect();
}

// The pause semantics are a property of the epoch boundary, so every case
// runs on both steppers.
class MultiVmSteppers : public ::testing::TestWithParam<ExecBackend> {};

INSTANTIATE_TEST_SUITE_P(Steppers, MultiVmSteppers,
                         ::testing::Values(ExecBackend::kLockstep,
                                           ExecBackend::kThreads),
                         [](const auto& info) {
                           return info.param == ExecBackend::kLockstep
                                      ? "Lockstep"
                                      : "Threads";
                         });

TEST_P(MultiVmSteppers, LockstepMatchesIndependentRunExec) {
  const auto spec = two_core_spec();
  const auto partition = Partitioner().partition(spec);
  ASSERT_TRUE(partition.complete());
  const auto subs = split_spec(spec, partition);
  ASSERT_EQ(subs.size(), 2u);

  const auto lockstep = run_machine(subs, spec.horizon, tu(1), GetParam());

  for (std::size_t c = 0; c < subs.size(); ++c) {
    const auto solo = exp::run_exec(subs[c]);
    ASSERT_EQ(lockstep[c].jobs.size(), solo.jobs.size());
    for (std::size_t i = 0; i < solo.jobs.size(); ++i) {
      EXPECT_EQ(lockstep[c].jobs[i].name, solo.jobs[i].name);
      EXPECT_EQ(lockstep[c].jobs[i].served, solo.jobs[i].served);
      EXPECT_EQ(lockstep[c].jobs[i].start, solo.jobs[i].start);
      EXPECT_EQ(lockstep[c].jobs[i].completion, solo.jobs[i].completion);
    }
    EXPECT_EQ(common::fingerprint(lockstep[c].timeline),
              common::fingerprint(solo.timeline));
  }
}

TEST_P(MultiVmSteppers, EpochSizeDoesNotChangeBehaviour) {
  const auto spec = two_core_spec();
  const auto partition = Partitioner().partition(spec);
  const auto subs = split_spec(spec, partition);

  std::vector<std::uint64_t> hashes;
  for (const auto quantum : {tu(1), tu(5), tu(24)}) {
    std::uint64_t combined = 0;
    for (auto& result : run_machine(subs, spec.horizon, quantum, GetParam())) {
      combined ^= common::fingerprint(result.timeline);
    }
    hashes.push_back(combined);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

// A driver pause must not rotate the running fiber behind equal-priority
// waiters: with two same-priority tasks on one core, epochs of any size must
// reproduce the solo run exactly (regression: the freeze path used to
// re-enqueue with a fresh ready_seq_, so every epoch boundary round-robined
// the two tasks).
TEST_P(MultiVmSteppers, EqualPriorityTasksSurviveEpochBoundaries) {
  model::SystemSpec spec;
  spec.name = "eq";
  spec.cores = 1;
  spec.server.policy = model::ServerPolicy::kNone;
  for (int i = 0; i < 2; ++i) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(i);
    t.period = tu(10);
    t.cost = tu(4);
    t.priority = 5;  // same priority on the same core
    spec.periodic_tasks.push_back(t);
  }
  spec.horizon = at_tu(20);

  const auto solo = exp::run_exec(spec);
  // Pause at every single tu.
  const auto lockstep = run_machine({spec}, spec.horizon, tu(1), GetParam());
  EXPECT_EQ(common::fingerprint(lockstep[0].timeline),
            common::fingerprint(solo.timeline));
  EXPECT_EQ(lockstep[0].timeline.busy_intervals("tau0"),
            solo.timeline.busy_intervals("tau0"));
}

// A fiber mid-work() at the final horizon must still close its busy
// interval there (regression: the seamless-freeze change used to leave the
// trace open, and busy_intervals drops unterminated intervals).
TEST_P(MultiVmSteppers, FrozenFiberIntervalClosesAtFinalHorizon) {
  model::SystemSpec spec;
  spec.name = "cut";
  spec.cores = 1;
  spec.server.policy = model::ServerPolicy::kNone;
  model::PeriodicTaskSpec t;
  t.name = "tau";
  t.period = tu(10);
  t.cost = tu(4);
  t.priority = 5;
  spec.periodic_tasks.push_back(t);
  spec.horizon = at_tu(3);  // cuts the first job mid-execution

  const auto results = run_machine({spec}, spec.horizon, tu(1), GetParam());
  const auto busy = results[0].timeline.busy_intervals("tau");
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(busy[0].begin, at_tu(0));
  EXPECT_EQ(busy[0].end, at_tu(3));
}

// The run ends at the horizon boundary: each core's frozen fiber closes its
// busy interval there before the boundary delivers anything. tau1 is
// mid-work at 10, and ping's fire of triggered pong (posted at 9.5) is
// delivered to core 1 by that final boundary.
TEST_P(MultiVmSteppers, FrozenFiberClosesBeforeTheHorizonBoundaryDelivers) {
  model::SystemSpec spec;
  spec.name = "end";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (const auto& [name, cost] :
       {std::pair{"tau0", 1}, std::pair{"tau1", 50}}) {
    model::PeriodicTaskSpec t;
    t.name = name;
    t.period = tu(100);
    t.cost = tu(cost);
    t.priority = 10;
    t.affinity = static_cast<int>(spec.periodic_tasks.size());
    spec.periodic_tasks.push_back(t);
  }
  model::AperiodicJobSpec ping;
  ping.name = "ping";
  ping.release = TimePoint::origin() + Duration::from_tu(8.5);
  ping.cost = tu(1);
  ping.affinity = 0;
  ping.fires = "pong";
  spec.aperiodic_jobs.push_back(ping);
  model::AperiodicJobSpec pong;
  pong.name = "pong";
  pong.cost = tu(1);
  pong.affinity = 1;
  pong.triggered = true;
  spec.aperiodic_jobs.push_back(pong);
  spec.horizon = at_tu(10);

  MpRunOptions options;
  options.strategy = PackingStrategy::kWorstFitDecreasing;
  options.quantum = tu(1);
  options.backend = GetParam();
  const auto run = mp::run(spec, options);

  const auto& records = run.per_core[1].timeline.records();
  const std::vector<std::string> want = {"preempt tau1", "fire pong.e",
                                         "release pong", "fire server.wakeUp"};
  ASSERT_GE(records.size(), want.size());
  const std::size_t first = records.size() - want.size();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& r = records[first + i];
    EXPECT_EQ(r.at, at_tu(10)) << i;
    EXPECT_EQ(std::string(common::to_string(r.kind)) + " " + r.who, want[i]);
  }
  // tsf_run prints the same fingerprint for this spec on both backends.
  EXPECT_EQ(common::fingerprint(run.merged.timeline), 0x199d0a9b19153cd2u);
}

// Throws from the first handler completion core 1 records after t = 5. A
// completion is a stepping-phase record (the server's fiber emits it
// mid-epoch); a throw from a boundary-phase record would hit the barrier's
// noexcept completion step instead.
class FailingSink final : public common::TraceSink {
 public:
  void record(TimePoint at, common::TraceKind kind, std::string_view,
              std::int64_t, std::string_view) override {
    if (kind == common::TraceKind::kComplete && at > at_tu(5) && !threw) {
      threw = true;
      throw std::runtime_error("core 1 failed");
    }
  }
  bool threw = false;
};

// A core failing mid-horizon stops the run: mp::run rethrows the core's
// error once every stepping thread has unwound (under threads, the failing
// worker drops out of the barrier and the survivors leave after the same
// epoch).
TEST_P(MultiVmSteppers, CoreFailureMidHorizonIsRethrown) {
  const auto spec = two_core_spec();
  FailingSink failing;
  MpRunOptions options;
  options.backend = GetParam();
  options.core_trace_sinks = {nullptr, &failing};
  try {
    mp::run(spec, options);
    ADD_FAILURE() << "the core failure was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "core 1 failed");
  }
  EXPECT_TRUE(failing.threw) << "the scenario never reached the failure";
}

// --- determinism regression suite: cross-core traffic ---

// Two cores exchanging fires both ways, a fire chain (ping -> pong ->
// peng), and a migratable job: the workload exercises every channel type.
model::SystemSpec cross_core_spec() {
  model::SystemSpec spec;
  spec.name = "det";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < 2; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(2);
    t.priority = 10;
    t.affinity = c;
    spec.periodic_tasks.push_back(t);
  }
  auto job = [&](const std::string& name, double release, double cost,
                 int affinity, const std::string& fires, bool triggered,
                 bool migrate) {
    model::AperiodicJobSpec j;
    j.name = name;
    j.release = TimePoint::origin() + common::Duration::from_tu(release);
    j.cost = common::Duration::from_tu(cost);
    j.affinity = affinity;
    j.fires = fires;
    j.triggered = triggered;
    j.migrate = migrate;
    spec.aperiodic_jobs.push_back(j);
  };
  job("ping", 1.0, 0.5, 0, "pong", false, false);
  job("pong", 0.0, 0.5, 1, "peng", true, false);
  job("peng", 0.0, 0.5, 0, "", true, false);
  job("back", 2.25, 0.5, 1, "echo", false, false);
  job("echo", 0.0, 0.5, 0, "", true, false);
  job("roam", 5.5, 1.0, -1, "", false, true);
  spec.horizon = at_tu(30);
  return spec;
}

TEST(MultiVmDeterminism, CrossCoreTrafficIsBitReproducible) {
  const auto spec = cross_core_spec();
  MpRunOptions options;
  options.quantum = Duration::from_tu(0.5);

  std::vector<MpRunResult> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(mp::run(spec, options));
  }
  // All traffic actually flowed: 3 fires + 1 migration, all delivered.
  ASSERT_EQ(runs[0].channel_deliveries.size(), 4u);
  for (const auto& d : runs[0].channel_deliveries) EXPECT_TRUE(d.ok);
  for (const auto& j : runs[0].merged.jobs) EXPECT_TRUE(j.served);

  const auto reference = common::fingerprint(runs[0].merged.timeline);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(common::fingerprint(runs[i].merged.timeline), reference)
        << testing::dump_timeline_mismatch(
               "cross_core_repeat_run" + std::to_string(i),
               runs[0].merged.timeline, runs[i].merged.timeline);
    ASSERT_EQ(runs[i].channel_deliveries.size(),
              runs[0].channel_deliveries.size());
    for (std::size_t d = 0; d < runs[i].channel_deliveries.size(); ++d) {
      EXPECT_EQ(runs[i].channel_deliveries[d].delivered,
                runs[0].channel_deliveries[d].delivered);
      EXPECT_EQ(runs[i].channel_deliveries[d].to_core,
                runs[0].channel_deliveries[d].to_core);
    }
  }
}

// Declaring the same jobs in a different order must not change the machine:
// routing is by affinity, releases are distinct instants, and channel
// deliveries are ordered by time — none of which see declaration order.
TEST(MultiVmDeterminism, HandlerDeclarationOrderDoesNotChangeTheRun) {
  const auto spec = cross_core_spec();
  auto permuted = spec;
  std::reverse(permuted.aperiodic_jobs.begin(), permuted.aperiodic_jobs.end());

  MpRunOptions options;
  options.quantum = Duration::from_tu(0.5);
  const auto a = mp::run(spec, options);
  const auto b = mp::run(permuted, options);

  EXPECT_EQ(common::fingerprint(a.merged.timeline),
            common::fingerprint(b.merged.timeline))
      << testing::dump_timeline_mismatch("cross_core_job_order",
                                         a.merged.timeline,
                                         b.merged.timeline);
  // Outcomes agree job by job (merged order differs with the spec, so
  // compare by name).
  ASSERT_EQ(a.merged.jobs.size(), b.merged.jobs.size());
  for (const auto& job_a : a.merged.jobs) {
    const auto it = std::find_if(
        b.merged.jobs.begin(), b.merged.jobs.end(),
        [&](const model::JobOutcome& j) { return j.name == job_a.name; });
    ASSERT_NE(it, b.merged.jobs.end()) << job_a.name;
    EXPECT_EQ(job_a.served, it->served) << job_a.name;
    EXPECT_EQ(job_a.release, it->release) << job_a.name;
    EXPECT_EQ(job_a.completion, it->completion) << job_a.name;
  }
}

// Epoch size changes *when* channel messages are delivered (that is the
// quantization delay), but any one quantum must reproduce itself exactly.
TEST(MultiVmDeterminism, EveryQuantumIsSelfReproducible) {
  const auto spec = cross_core_spec();
  for (const auto quantum : {Duration::from_tu(0.25), tu(1), tu(5)}) {
    MpRunOptions options;
    options.quantum = quantum;
    const auto a = mp::run(spec, options);
    const auto b = mp::run(spec, options);
    EXPECT_EQ(common::fingerprint(a.merged.timeline),
              common::fingerprint(b.merged.timeline))
        << "quantum " << common::to_string(quantum)
        << "; "
        << testing::dump_timeline_mismatch(
               "cross_core_quantum_" +
                   std::to_string(quantum.count()),
               a.merged.timeline, b.merged.timeline);
  }
}

// Within one epoch the boundary posts every cross-core fire core by core,
// each core's in its post order — the lock-step stepper's order — however
// the threads stepper's workers interleaved, and whatever the fires'
// virtual instants: core 1 fires earlier here, yet core 0's fires go first.
TEST(MultiVmDeterminism, CrossCoreFiresPostInCoreThenPostOrder) {
  model::SystemSpec spec;
  spec.name = "order";
  spec.cores = 3;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(4);
  spec.server.priority = 30;
  auto job = [&](const std::string& name, std::int64_t release, int core,
                 const std::string& fires, bool triggered) {
    model::AperiodicJobSpec j;
    j.name = name;
    j.release = at_tu(release);
    j.cost = tu(1);
    j.affinity = core;
    j.fires = fires;
    j.triggered = triggered;
    spec.aperiodic_jobs.push_back(j);
  };
  job("a0", 5, 0, "t", false);
  job("a1", 6, 0, "t", false);
  job("b0", 1, 1, "t", false);
  job("b1", 2, 1, "t", false);
  job("t", 0, 2, "", true);
  spec.horizon = at_tu(30);

  std::vector<std::uint64_t> fingerprints;
  for (const auto backend : {ExecBackend::kLockstep, ExecBackend::kThreads}) {
    MpRunOptions options;
    options.quantum = tu(10);
    options.backend = backend;
    const auto run = mp::run(spec, options);
    const auto& d = run.channel_deliveries;
    ASSERT_EQ(d.size(), 4u) << to_string(backend);
    const std::size_t from[] = {0, 0, 1, 1};
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(d[i].from_core, from[i]) << to_string(backend) << " #" << i;
      EXPECT_EQ(d[i].to_core, 2u);
      EXPECT_TRUE(d[i].ok);
      EXPECT_EQ(d[i].delivered, at_tu(10));
    }
    EXPECT_LT(d[0].posted, d[1].posted) << to_string(backend);
    EXPECT_LT(d[2].posted, d[3].posted) << to_string(backend);
    EXPECT_LT(d[3].posted, d[0].posted) << "core 1 must fire first";
    fingerprints.push_back(common::fingerprint(run.merged.timeline));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

// --- determinism regression suite: scheduling policies ---

// cross_core_spec plus an imbalanced unpinned burst: under semi the idle
// core steals from the backed-up one, under global the burst flows through
// the shared ready pool — on top of the cross-core fires and migration the
// base spec already exercises. Releases are distinct instants (the suite's
// standing precondition: simultaneous releases order the pending queue by
// timer-creation — i.e. declaration — order) but land within one epoch, so
// the burst still arrives as a burst.
model::SystemSpec policy_traffic_spec() {
  auto spec = cross_core_spec();
  for (int j = 0; j < 6; ++j) {
    model::AperiodicJobSpec job;
    job.name = "burst" + std::to_string(j);
    job.release = TimePoint::origin() + common::Duration::from_tu(8.0 + 0.05 * j);
    job.cost = common::Duration::from_tu(j % 2 == 0 ? 1.5 : 0.25);
    spec.aperiodic_jobs.push_back(job);
  }
  return spec;
}

class MultiVmPolicyDeterminism
    : public ::testing::TestWithParam<SchedPolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, MultiVmPolicyDeterminism,
                         ::testing::Values(SchedPolicy::kGlobal,
                                           SchedPolicy::kSemiPartitioned),
                         [](const auto& info) {
                           return info.param == SchedPolicy::kGlobal
                                      ? "Global"
                                      : "SemiPartitioned";
                         });

TEST_P(MultiVmPolicyDeterminism, ThreeRunsAreBitReproducible) {
  const auto spec = policy_traffic_spec();
  MpRunOptions options;
  options.policy = GetParam();
  options.quantum = Duration::from_tu(0.5);

  std::vector<MpRunResult> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(mp::run(spec, options));
  }
  // The policy actually moved work: steals under semi, pool dispatches
  // under global (otherwise this suite would pass vacuously).
  if (GetParam() == SchedPolicy::kSemiPartitioned) {
    EXPECT_GT(runs[0].steals, 0u);
  } else {
    EXPECT_GT(runs[0].pool_dispatches, 0u);
  }
  for (const auto& j : runs[0].merged.jobs) EXPECT_TRUE(j.served) << j.name;

  const auto reference = common::fingerprint(runs[0].merged.timeline);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(common::fingerprint(runs[i].merged.timeline), reference)
        << testing::dump_timeline_mismatch(
               std::string("policy_repeat_") + to_string(GetParam()) +
                   "_run" + std::to_string(i),
               runs[0].merged.timeline, runs[i].merged.timeline);
    ASSERT_EQ(runs[i].channel_deliveries.size(),
              runs[0].channel_deliveries.size());
    for (std::size_t d = 0; d < runs[i].channel_deliveries.size(); ++d) {
      EXPECT_EQ(runs[i].channel_deliveries[d].job,
                runs[0].channel_deliveries[d].job);
      EXPECT_EQ(runs[i].channel_deliveries[d].delivered,
                runs[0].channel_deliveries[d].delivered);
      EXPECT_EQ(runs[i].channel_deliveries[d].to_core,
                runs[0].channel_deliveries[d].to_core);
    }
    EXPECT_EQ(runs[i].steals, runs[0].steals);
    EXPECT_EQ(runs[i].pool_dispatches, runs[0].pool_dispatches);
  }
}

TEST_P(MultiVmPolicyDeterminism, JobDeclarationOrderDoesNotChangeTheRun) {
  const auto spec = policy_traffic_spec();
  auto permuted = spec;
  std::reverse(permuted.aperiodic_jobs.begin(), permuted.aperiodic_jobs.end());

  MpRunOptions options;
  options.policy = GetParam();
  options.quantum = Duration::from_tu(0.5);
  const auto a = mp::run(spec, options);
  const auto b = mp::run(permuted, options);

  // The pool / steal ordering key is (value, release, name) — never the
  // declaration index — so the machine must be identical.
  EXPECT_EQ(common::fingerprint(a.merged.timeline),
            common::fingerprint(b.merged.timeline))
      << testing::dump_timeline_mismatch(
             std::string("policy_job_order_") + to_string(GetParam()),
             a.merged.timeline, b.merged.timeline);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.pool_dispatches, b.pool_dispatches);
  ASSERT_EQ(a.merged.jobs.size(), b.merged.jobs.size());
  for (const auto& job_a : a.merged.jobs) {
    const auto it = std::find_if(
        b.merged.jobs.begin(), b.merged.jobs.end(),
        [&](const model::JobOutcome& j) { return j.name == job_a.name; });
    ASSERT_NE(it, b.merged.jobs.end()) << job_a.name;
    EXPECT_EQ(job_a.served, it->served) << job_a.name;
    EXPECT_EQ(job_a.release, it->release) << job_a.name;
    EXPECT_EQ(job_a.completion, it->completion) << job_a.name;
  }
}

}  // namespace
}  // namespace tsf::mp
