// Cross-validation contract of the real-threads backend: for every spec in
// the determinism suites, `backend = threads` must produce the SAME
// served/missed job sets as the lock-step oracle, with response-time
// distributions (LogSketch) within the declared tolerance. Each threads run
// is repeated 3x to shake out host-scheduling ordering sensitivity.
//
// The declared contract is set equality + sketch-quantile tolerance; the
// suite additionally asserts trace-fingerprint equality, which the
// per-core outboxes make achievable (the boundary posts them in core order,
// the oracle's order exactly) and which turns any future ordering
// regression into a hard failure instead of a tolerance-shaped soft one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "common/sketch.h"
#include "common/trace.h"
#include "gen/storms.h"
#include "mp/mp_system.h"
#include "mp/overload.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

// Declared cross-validation tolerance on response-time quantiles, in time
// units. With equal served sets the distributions are identical and the
// observed difference is 0; the tolerance bounds how far a future
// relaxation of the boundary's post ordering would be allowed to drift.
constexpr double kQuantileToleranceTu = 0.25;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

// The determinism suites' busy spec: per-core periodic load, a deferrable
// server, aperiodic traffic, a cross-core fire chain and a migratable job.
model::SystemSpec busy_spec(int cores) {
  model::SystemSpec spec;
  spec.name = "backend-eq";
  spec.cores = cores;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < cores; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(3);
    t.priority = 10;
    spec.periodic_tasks.push_back(t);
  }
  for (int j = 0; j < 8; ++j) {
    model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = at_tu(1 + 2 * j);
    job.cost = tu(1);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.aperiodic_jobs[0].fires = "trig";
  model::AperiodicJobSpec trig;
  trig.name = "trig";
  trig.triggered = true;
  trig.cost = tu(1);
  spec.aperiodic_jobs.push_back(trig);
  model::AperiodicJobSpec roam;
  roam.name = "roam";
  roam.release = at_tu(5);
  roam.cost = tu(1);
  roam.migrate = true;
  spec.aperiodic_jobs.push_back(roam);
  spec.horizon = at_tu(24);
  return spec;
}

// (job, release) identity sets plus the served-response distribution.
struct RunSignature {
  std::set<std::pair<std::string, std::int64_t>> served;
  std::set<std::pair<std::string, std::int64_t>> missed;
  std::set<std::pair<std::string, std::int64_t>> shed;
  common::LogSketch responses;
  std::uint64_t fingerprint = 0;
};

RunSignature signature_of(const MpRunResult& run) {
  RunSignature sig;
  for (const auto& job : run.merged.jobs) {
    const auto key = std::make_pair(
        job.name, (job.release - TimePoint::origin()).count());
    if (job.served) {
      sig.served.insert(key);
      sig.responses.add(job.response().to_tu());
    } else if (job.shed) {
      sig.shed.insert(key);
    } else {
      sig.missed.insert(key);
    }
  }
  sig.fingerprint = common::fingerprint(run.merged.timeline);
  return sig;
}

void expect_equivalent(const model::SystemSpec& spec,
                       MpRunOptions options, const char* label) {
  options.backend = ExecBackend::kLockstep;
  const auto oracle = signature_of(mp::run(spec, options));
  ASSERT_FALSE(oracle.served.empty()) << label << ": oracle served nothing";

  options.backend = ExecBackend::kThreads;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto threads = signature_of(mp::run(spec, options));
    SCOPED_TRACE(std::string(label) + " repeat " + std::to_string(repeat));
    // The contract: identical served/missed/shed sets...
    EXPECT_EQ(threads.served, oracle.served);
    EXPECT_EQ(threads.missed, oracle.missed);
    EXPECT_EQ(threads.shed, oracle.shed);
    // ...and response quantiles within the declared tolerance.
    for (const double q : {0.50, 0.95, 0.99}) {
      EXPECT_NEAR(threads.responses.quantile(q),
                  oracle.responses.quantile(q), kQuantileToleranceTu)
          << "quantile " << q;
    }
    // Stronger than the contract: the boundary posts the outboxes in the
    // oracle's order, so the traces are bit-identical.
    EXPECT_EQ(threads.fingerprint, oracle.fingerprint);
  }
}

TEST(BackendEquivalence, PartitionedWithChannels) {
  expect_equivalent(busy_spec(2), MpRunOptions{}, "partitioned");
}

TEST(BackendEquivalence, GlobalPool) {
  MpRunOptions options;
  options.policy = SchedPolicy::kGlobal;
  expect_equivalent(busy_spec(2), options, "global");
}

TEST(BackendEquivalence, SemiPartitionedStealing) {
  MpRunOptions options;
  options.policy = SchedPolicy::kSemiPartitioned;
  expect_equivalent(busy_spec(3), options, "semi");
}

TEST(BackendEquivalence, DriftRebalance) {
  MpRunOptions options;
  options.rebalance.mode = RebalanceMode::kDrift;
  options.rebalance.drift = 0.05;
  options.rebalance.period = tu(4);
  expect_equivalent(busy_spec(2), options, "rebalance");
}

TEST(BackendEquivalence, SubQuantumEpochAndJitter) {
  // Fractional quantum plus execution-time jitter: the outboxes must keep
  // oracle order when posts land mid-epoch at non-integral instants.
  MpRunOptions options;
  options.policy = SchedPolicy::kSemiPartitioned;
  options.quantum = common::Duration::from_tu(0.5);
  options.exec.cost_jitter = 0.2;
  expect_equivalent(busy_spec(2), options, "sub-quantum+jitter");
}

// Overloaded storm cells: while the governor sheds (or D-over rejects and
// takes over), the threads backend must still replay the lock-step oracle
// bit-for-bit — equal served/missed/shed sets AND equal fingerprints, so a
// shed decision landing on a different epoch in either backend is a hard
// failure, not a tolerance-shaped soft one.
TEST(BackendEquivalence, OverloadStormShedding) {
  const gen::StormShape shapes[] = {gen::StormShape::kRouterPacketStorm,
                                    gen::StormShape::kMarketOpenBurst,
                                    gen::StormShape::kCascadingFaultBurst};
  for (const auto shape : shapes) {
    gen::StormParams params;
    params.shape = shape;
    params.server_capacity = tu(1);
    params.horizon_periods = 4;
    // Hot enough that the utilization governor actually trips on the
    // scaled-down 1tu replicas, not just the D-over admission test.
    params.overload_factor = 4.0;
    const auto spec = gen::make_storm(params);
    for (const auto mode :
         {exp::OverloadMode::kShed, exp::OverloadMode::kDover}) {
      MpRunOptions options;
      options.quantum = common::Duration::from_tu(0.5);
      options.exec.overload.mode = mode;
      options.exec.overload.threshold = 0.75;
      options.exec.overload.period = tu(6);
      const std::string label =
          std::string("storm ") + gen::to_string(shape) + "/" +
          exp::to_string(mode);
      expect_equivalent(spec, options, label.c_str());

      // The storm must actually exercise the policy in both backends.
      options.backend = ExecBackend::kThreads;
      const auto threads = mp::run(spec, options);
      EXPECT_FALSE(threads.merged.shed_events.empty()) << label;
      EXPECT_TRUE(check_overload_invariants(spec, threads).empty()) << label;
    }
  }
}

// Batched dispatch cells: with [run] batch > 1 the servers drain same-
// priority releases under one Timed section. The contract is unchanged —
// the threads backend must replay the batched lock-step oracle bit-for-bit,
// and every job must still land in exactly one of served/missed/shed.
TEST(BackendEquivalence, BatchedDispatch) {
  for (const int batch : {4, 16}) {
    MpRunOptions options;
    options.exec.batch = batch;
    const std::string label = "batch=" + std::to_string(batch);
    expect_equivalent(busy_spec(2), options, label.c_str());
  }
}

TEST(BackendEquivalence, BatchedDispatchUnderStealing) {
  // Stealing moves pending work between cores mid-epoch; a batch collected
  // on the victim must not double-serve or lose the stolen job.
  MpRunOptions options;
  options.policy = SchedPolicy::kSemiPartitioned;
  options.exec.batch = 4;
  expect_equivalent(busy_spec(3), options, "batch=4 semi");
}

TEST(BackendEquivalence, BatchedStormShedding) {
  // A shedding storm with batching on: aborted batch tails must requeue
  // identically in both backends, and the ledger stays exactly-once.
  gen::StormParams params;
  params.shape = gen::StormShape::kRouterPacketStorm;
  params.server_capacity = tu(1);
  params.horizon_periods = 4;
  params.overload_factor = 4.0;
  const auto spec = gen::make_storm(params);
  MpRunOptions options;
  options.quantum = common::Duration::from_tu(0.5);
  options.exec.batch = 8;
  options.exec.overload.mode = exp::OverloadMode::kShed;
  options.exec.overload.threshold = 0.75;
  options.exec.overload.period = tu(6);
  expect_equivalent(spec, options, "storm batch=8 shed");

  options.backend = ExecBackend::kThreads;
  const auto threads = mp::run(spec, options);
  EXPECT_FALSE(threads.merged.shed_events.empty());
  EXPECT_TRUE(check_overload_invariants(spec, threads).empty());
  // Exactly-once across batch boundaries: every aperiodic job of the spec
  // shows up exactly once in the merged ledger.
  std::multiset<std::string> seen;
  for (const auto& job : threads.merged.jobs) seen.insert(job.name);
  for (const auto& job : spec.aperiodic_jobs) {
    EXPECT_EQ(seen.count(job.name), 1u) << job.name;
  }
}

TEST(BackendEquivalence, BatchOfOneIsBitIdenticalToDefault) {
  // batch = 1 is not "a small batch" — it takes the historical per-event
  // dispatch path verbatim, so the fingerprint must equal the default run's.
  const auto spec = busy_spec(2);
  for (const auto backend : {ExecBackend::kLockstep, ExecBackend::kThreads}) {
    MpRunOptions options;
    options.backend = backend;
    const auto baseline = signature_of(mp::run(spec, options));
    options.exec.batch = 1;
    const auto explicit_one = signature_of(mp::run(spec, options));
    EXPECT_EQ(explicit_one.fingerprint, baseline.fingerprint);
    EXPECT_EQ(explicit_one.served, baseline.served);
  }
}

TEST(BackendEquivalence, ThreadsBackendIsRunToRunDeterministic) {
  // The threads backend is not just oracle-equivalent; it is deterministic
  // in its own right (sorted replay over deterministic per-core worlds).
  MpRunOptions options;
  options.policy = SchedPolicy::kGlobal;
  options.backend = ExecBackend::kThreads;
  const auto spec = busy_spec(3);
  const auto first = signature_of(mp::run(spec, options));
  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto again = signature_of(mp::run(spec, options));
    EXPECT_EQ(again.fingerprint, first.fingerprint) << "repeat " << repeat;
    EXPECT_EQ(again.served, first.served);
  }
}

}  // namespace
}  // namespace tsf::mp
