// The online rebalancer (mp/rebalance.h): drift-triggered migration of
// pending work, online admission of offline-rejected tasks, determinism,
// and the kRebalance ledger contract (every move exactly once).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "exp/metrics.h"
#include "mp/mp_system.h"
#include "mp/rebalance.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(double x) { return Duration::from_tu(x); }
TimePoint at_tu(double x) { return TimePoint::origin() + tu(x); }

// A sustained skewed load: bursts of six unpinned jobs every `spacing` tu.
// Round-robin routing walks the jobs in name order, so the even slots — the
// heavy ones — all land on core 0, which is offered more aperiodic work
// than its server replica was sized for while core 1 stays nearly idle.
// Exactly the "measured utilization drifts from the packed one" scenario
// the rebalancer exists for.
model::SystemSpec drift_spec(int bursts, double spacing = 8.0) {
  model::SystemSpec spec;
  spec.name = "drift";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(3);
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
  for (int b = 0; b < bursts; ++b) {
    for (int j = 0; j < 6; ++j) {
      model::AperiodicJobSpec job;
      job.name = "b" + std::to_string(b) + "_" + std::to_string(j);
      job.release = at_tu(1.0 + spacing * b + 0.05 * j);
      job.cost = (j % 2 == 0) ? tu(2.0) : tu(0.25);
      spec.aperiodic_jobs.push_back(job);
    }
  }
  spec.horizon = at_tu(1.0 + spacing * bursts + 16);
  return spec;
}

MpRunOptions drift_options(RebalanceMode mode) {
  MpRunOptions options;
  options.strategy = PackingStrategy::kWorstFitDecreasing;
  options.quantum = tu(0.5);
  options.rebalance.mode = mode;
  options.rebalance.drift = 0.15;
  options.rebalance.period = tu(6);
  return options;
}

TEST(Rebalance, DriftRunsAreFingerprintIdenticalAcrossThreeRuns) {
  const auto spec = drift_spec(8);
  const auto options = drift_options(RebalanceMode::kDrift);
  const auto a = mp::run(spec, options);
  const auto b = mp::run(spec, options);
  const auto c = mp::run(spec, options);
  ASSERT_GT(a.rebalance_migrations, 0u)
      << "the drift workload must actually trigger migrations";
  EXPECT_GT(a.rebalance_passes, 0u);
  const auto fp = common::fingerprint(a.merged.timeline);
  EXPECT_EQ(fp, common::fingerprint(b.merged.timeline));
  EXPECT_EQ(fp, common::fingerprint(c.merged.timeline));
  EXPECT_EQ(a.rebalance_migrations, b.rebalance_migrations);
  EXPECT_EQ(a.rebalance_migrations, c.rebalance_migrations);
}

TEST(Rebalance, EveryMigrationAppearsExactlyOnceInTheLedger) {
  const auto spec = drift_spec(8);
  const auto run =
      mp::run(spec, drift_options(RebalanceMode::kDrift));
  ASSERT_GT(run.rebalance_migrations, 0u);

  std::uint64_t records = 0;
  std::set<std::pair<std::string, TimePoint>> moved;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind != exp::ChannelDelivery::Kind::kRebalance) continue;
    ++records;
    ASSERT_TRUE(d.ok);
    ASSERT_NE(d.from_core, exp::ChannelDelivery::kNoCore)
        << "a drift-mode run must not record admissions";
    EXPECT_NE(d.from_core, d.to_core) << d.job;
    // Release-preserving like a steal, and never a boundary-coincident
    // (mid-bind) release: strictly earlier than the migration instant.
    EXPECT_LT(d.posted, d.delivered) << d.job;
    EXPECT_TRUE(moved.insert({d.job, d.posted}).second)
        << d.job << " migrated twice at the same release";
  }
  EXPECT_EQ(records, run.rebalance_migrations)
      << "counter and ledger drifted apart";

  // A migrated job completes on its new home; no unserved shadow of it may
  // survive the merge (the (job, release) dedupe of PR 3 extended to
  // kRebalance moves).
  std::map<std::pair<std::string, TimePoint>, int> outcomes;
  for (const auto& o : run.merged.jobs) ++outcomes[{o.name, o.release}];
  for (const auto& key : moved) {
    EXPECT_EQ(outcomes[key], 1)
        << key.first << ": a rebalanced job must have exactly one merged"
        << " outcome, shadows dropped";
  }

  // And the channel metrics see the moves.
  const auto ch =
      exp::compute_channel_metrics(run.channel_deliveries, run.merged);
  EXPECT_EQ(ch.rebalance_migrations, run.rebalance_migrations);
  EXPECT_EQ(ch.rebalance_admissions, 0u);
}

TEST(Rebalance, DriftModeImprovesTailResponseOverStatic) {
  const auto spec = drift_spec(8);
  const auto off =
      mp::run(spec, drift_options(RebalanceMode::kOff));
  const auto drift =
      mp::run(spec, drift_options(RebalanceMode::kDrift));
  const auto off_d = exp::compute_response_distribution({off.merged});
  const auto drift_d = exp::compute_response_distribution({drift.merged});
  EXPECT_LT(drift_d.p99_tu, off_d.p99_tu)
      << "rebalancing must beat the static partition on the drift workload";
  EXPECT_GE(drift_d.samples, off_d.samples)
      << "rebalancing must not serve fewer jobs";
}

TEST(Rebalance, OffIsTheExistingPartitionedBaseline) {
  const auto spec = drift_spec(4);
  MpRunOptions plain;
  plain.strategy = PackingStrategy::kWorstFitDecreasing;
  plain.quantum = tu(0.5);
  const auto baseline = mp::run(spec, plain);
  const auto off =
      mp::run(spec, drift_options(RebalanceMode::kOff));
  EXPECT_EQ(common::fingerprint(baseline.merged.timeline),
            common::fingerprint(off.merged.timeline));
  EXPECT_EQ(off.rebalance_migrations, 0u);
  EXPECT_EQ(off.rebalance_passes, 0u);
}

// Offline rejection, online admission: three unpinned tasks of 0.3 on two
// cores whose server replicas already hold 0.5 each — the packer places
// two and rejects the third. The live machine's measured aperiodic load is
// tiny, so measured headroom appears (0.3 + drift margin 0.25 + 0.3 fits
// under 1.0) and admit mode starts the rejected task mid-run on the
// chosen core — reclaiming server reservation the workload is not using.
model::SystemSpec admit_spec() {
  model::SystemSpec spec;
  spec.name = "admit";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int i = 0; i < 3; ++i) {
    model::PeriodicTaskSpec t;
    t.name = "t" + std::to_string(i);
    t.period = tu(10);
    t.cost = tu(3);
    t.priority = 10 + i;
    spec.periodic_tasks.push_back(t);
  }
  for (int j = 0; j < 2; ++j) {
    model::AperiodicJobSpec job;
    job.name = "j" + std::to_string(j);
    job.release = at_tu(1.0 + 10.0 * j);
    job.cost = tu(0.5);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(60);
  return spec;
}

MpRunOptions admit_options() {
  MpRunOptions options;
  options.quantum = tu(0.5);
  options.rebalance.mode = RebalanceMode::kAdmit;
  options.rebalance.drift = 0.25;
  options.rebalance.period = tu(6);
  return options;
}

TEST(Rebalance, AdmitsRejectedTaskOnceHeadroomAppears) {
  const auto spec = admit_spec();
  const auto options = admit_options();
  const auto partition = Partitioner(options.strategy).partition(spec);
  ASSERT_EQ(partition.rejected.size(), 1u)
      << "the scenario must start with exactly one offline rejection";

  const auto run = mp::run(spec, partition, options);
  EXPECT_EQ(run.rebalance_admissions, 1u);
  EXPECT_EQ(run.rebalance_still_rejected, 0u);

  const std::string rejected_name = partition.rejected[0].item.name;
  const exp::ChannelDelivery* admission = nullptr;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind == exp::ChannelDelivery::Kind::kRebalance &&
        d.from_core == exp::ChannelDelivery::kNoCore) {
      ASSERT_EQ(admission, nullptr) << "one admission, one record";
      admission = &d;
    }
  }
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->job, rejected_name);
  EXPECT_EQ(admission->posted, admission->delivered);
  EXPECT_TRUE(admission->ok);

  // The admitted task really runs from the admission instant onward.
  std::size_t completions = 0;
  for (const auto& p : run.merged.periodic_jobs) {
    if (p.task != rejected_name) continue;
    ++completions;
    EXPECT_GE(p.release, admission->delivered);
  }
  EXPECT_GT(completions, 0u) << rejected_name << " never ran after admission";

  // Deterministic like everything else at the boundaries.
  const auto rerun = mp::run(spec, partition, options);
  EXPECT_EQ(common::fingerprint(run.merged.timeline),
            common::fingerprint(rerun.merged.timeline));
  const auto ch =
      exp::compute_channel_metrics(run.channel_deliveries, run.merged);
  EXPECT_EQ(ch.rebalance_admissions, 1u);
}

// The rebalancer and the shed governor read one load meter: an online
// admission is part of the load both of them see. With equal windows their
// last samples agree on every core, the admitted task's 0.3 included
// (regression: the governor kept its own copy of the measurement, which
// never learned of admissions).
TEST(Rebalance, ShedGovernorSeesTheAdmittedTask) {
  const auto spec = admit_spec();
  auto options = admit_options();
  options.exec.overload.mode = exp::OverloadMode::kShed;
  options.exec.overload.period = options.rebalance.period;

  const auto run = mp::run(spec, options);
  ASSERT_EQ(run.rebalance_admissions, 1u);
  ASSERT_EQ(run.overload_utilization.size(), 2u);
  ASSERT_EQ(run.rebalance_utilization.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(run.overload_utilization[c], run.rebalance_utilization[c])
        << "core " << c;
  }
}

TEST(RebalanceMode, ParseAndPrintRoundTrip) {
  for (const auto mode :
       {RebalanceMode::kOff, RebalanceMode::kDrift, RebalanceMode::kAdmit}) {
    const auto back = parse_rebalance_mode(to_string(mode));
    ASSERT_TRUE(back.has_value()) << to_string(mode);
    EXPECT_EQ(*back, mode);
  }
  EXPECT_FALSE(parse_rebalance_mode("sometimes").has_value());
}

}  // namespace
}  // namespace tsf::mp
