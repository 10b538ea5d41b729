// Property/fuzz suite for the scheduling-policy layer: 200 seeded random
// multi-core systems run under the semi-partitioned and global policies,
// asserting the work-stealing / ready-pool invariants that must hold on
// every workload:
//
//   S1  a stolen job is never run twice — each (name, release) the steal
//       records touched has exactly one outcome in the merged result;
//   S2  a job is never stolen while running — the outcome of a stolen
//       release starts at or after the (last) steal boundary, and every
//       steal instant lies at or after the job's release;
//   S3  the shared pool respects priority order — within one boundary's
//       dispatch batch, records leave in schedules_before order;
//   S4  steal count == steal-record count (and pool dispatches == pool
//       records): the counters and the delivery ledger never drift apart;
//   S5  each (name, release) is booked by one core — a steal books
//       nothing on the victim and re-releases the request on the thief
//       alone — so the merged outcomes hold one record per key.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mp/mp_system.h"
#include "support/booking_checks.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

model::SystemSpec random_spec(std::uint64_t seed) {
  common::Rng rng(seed);
  model::SystemSpec spec;
  spec.name = "steal_fuzz" + std::to_string(seed);
  spec.cores = static_cast<int>(rng.uniform_i64(2, 4));

  spec.server.policy = rng.next_double() < 0.5
                           ? model::ServerPolicy::kPolling
                           : model::ServerPolicy::kDeferrable;
  spec.server.period = Duration::time_units(rng.uniform_i64(4, 8));
  spec.server.capacity = Duration::ticks(static_cast<std::int64_t>(
      spec.server.period.count() * rng.uniform(0.3, 0.6)));
  spec.server.priority = 30;

  const int tasks = static_cast<int>(rng.uniform_i64(0, 3));
  for (int i = 0; i < tasks; ++i) {
    model::PeriodicTaskSpec t;
    t.name = "t" + std::to_string(i);
    t.period = Duration::time_units(rng.uniform_i64(6, 20));
    t.cost = Duration::ticks(static_cast<std::int64_t>(
        t.period.count() * rng.uniform(0.05, 0.3)));
    if (t.cost.is_zero()) t.cost = Duration::ticks(1);
    t.priority = static_cast<int>(rng.uniform_i64(1, 20));
    spec.periodic_tasks.push_back(t);
  }

  // Mostly unpinned (stealable / poolable) jobs, some pinned, bursty
  // releases so queues actually back up while other cores idle.
  const int jobs = static_cast<int>(rng.uniform_i64(3, 10));
  for (int j = 0; j < jobs; ++j) {
    model::AperiodicJobSpec job;
    job.name = "j" + std::to_string(j);
    // Cluster releases around a few instants to create imbalance.
    const double burst = static_cast<double>(rng.uniform_i64(0, 3)) * 7.0;
    job.release = TimePoint::origin() +
                  Duration::ticks(static_cast<std::int64_t>(
                      burst * 1000.0 + rng.uniform_i64(0, 2000)));
    job.cost = Duration::ticks(rng.uniform_i64(
        100, spec.server.capacity.count() + 500));
    if (rng.next_double() < 0.2) {
      job.affinity = static_cast<int>(rng.uniform_i64(0, spec.cores - 1));
    }
    if (rng.next_double() < 0.3) {
      job.value = rng.uniform(0.5, 10.0);
    }
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = TimePoint::origin() + Duration::time_units(40);
  return spec;
}

// The scheduling key as the runtime computes it: raw value, declared-cost
// fallback.
double sched_value(const model::AperiodicJobSpec& job) {
  return job.value == 0.0 ? job.effective_declared_cost().to_tu() : job.value;
}

void check_invariants(const model::SystemSpec& spec, const MpRunResult& run,
                      const std::string& label) {
  // Index the spec and the merged outcomes.
  std::map<std::string, const model::AperiodicJobSpec*> spec_jobs;
  for (const auto& j : spec.aperiodic_jobs) spec_jobs[j.name] = &j;
  std::map<std::pair<std::string, TimePoint>, std::vector<const model::JobOutcome*>>
      outcomes;
  for (const auto& o : run.merged.jobs) {
    outcomes[{o.name, o.release}].push_back(&o);
  }

  // S5: no (name, release) is booked by two cores, and — this workload has
  // no triggered jobs to re-fire — the merge holds exactly one record per
  // key.
  EXPECT_EQ(testing::find_cross_core_booking(run.per_core), "") << label;
  for (const auto& [key, records] : outcomes) {
    EXPECT_EQ(records.size(), 1u)
        << label << ": " << key.first << " released at "
        << common::to_string(key.second) << " has " << records.size()
        << " merged outcomes";
  }

  std::uint64_t steal_records = 0;
  std::uint64_t pool_records = 0;
  std::map<std::pair<std::string, TimePoint>, TimePoint> last_steal;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind == exp::ChannelDelivery::Kind::kSteal) {
      ++steal_records;
      ASSERT_TRUE(d.ok) << label << ": steals are never undeliverable";
      // S2 (first half): a steal happens strictly after the job's release.
      // Strictly: a release landing exactly on the steal boundary is still
      // mid-bind (the home server's wake-up for it is in flight) and must
      // never be taken — see TaskServer::take_pending.
      EXPECT_LT(d.posted, d.delivered) << label << ": " << d.job;
      auto& last = last_steal[{d.job, d.posted}];
      last = common::max(last, d.delivered);
    } else if (d.kind == exp::ChannelDelivery::Kind::kPool) {
      if (d.ok) ++pool_records;
    }
  }

  // S4: counters == ledger.
  EXPECT_EQ(run.steals, steal_records) << label;
  EXPECT_EQ(run.pool_dispatches, pool_records) << label;

  // S1 + S2: each stolen (name, release) ran at most once, and if it ran,
  // it started at or after the last steal that moved it.
  for (const auto& [key, boundary] : last_steal) {
    auto it = outcomes.find(key);
    ASSERT_NE(it, outcomes.end())
        << label << ": stolen job " << key.first << " lost its outcome";
    ASSERT_EQ(it->second.size(), 1u)
        << label << ": stolen job " << key.first << " ran twice";
    const auto* outcome = it->second.front();
    if (outcome->served || outcome->interrupted) {
      EXPECT_GE(outcome->start, boundary)
          << label << ": stolen job " << key.first
          << " started before its steal boundary";
    }
  }

  // S3: within one boundary's pool batch, dispatch order follows the
  // scheduling key.
  const exp::ChannelDelivery* prev = nullptr;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind != exp::ChannelDelivery::Kind::kPool || !d.ok) {
      continue;
    }
    if (prev != nullptr && prev->delivered == d.delivered) {
      const auto* a = spec_jobs[prev->job];
      const auto* b = spec_jobs[d.job];
      ASSERT_NE(a, nullptr) << label;
      ASSERT_NE(b, nullptr) << label;
      EXPECT_FALSE(exp::schedules_before(sched_value(*b), b->release, b->name,
                                         sched_value(*a), a->release,
                                         a->name))
          << label << ": pool dispatched " << prev->job << " before "
          << d.job << " against the priority order";
    }
    prev = &d;
  }
}

TEST(StealProperty, InvariantsHoldOnSeededRandomSystems) {
  std::uint64_t total_steals = 0;
  std::uint64_t total_pool = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto spec = random_spec(seed);
    for (const auto policy :
         {SchedPolicy::kSemiPartitioned, SchedPolicy::kGlobal}) {
      MpRunOptions options;
      options.policy = policy;
      options.quantum = Duration::from_tu(0.5);
      const auto run = mp::run(spec, options);
      const std::string label =
          "seed " + std::to_string(seed) + ", " + to_string(policy);
      check_invariants(spec, run, label);
      if (::testing::Test::HasFatalFailure()) return;
      total_steals += run.steals;
      total_pool += run.pool_dispatches;
    }
  }
  // The suite must not pass vacuously: across 200 seeds the policies have
  // to have moved real work.
  EXPECT_GT(total_steals, 50u);
  EXPECT_GT(total_pool, 200u);
}

// Regression for the mid-bind steal: a release landing *exactly* on an
// epoch boundary is pushed into its home queue by that boundary's drain (or
// a boundary-coincident timer) while the home server's wake-up is still in
// flight — the same boundary's steal pass used to be able to take it out
// from under that wake-up. Every release here is aligned to the 0.5 tu
// quantum and clustered so queues back up and steals do fire; no steal may
// ever carry posted == delivered, and nothing may be lost.
TEST(StealProperty, BoundaryCoincidentReleasesAreNeverStolenMidBind) {
  model::SystemSpec spec;
  spec.name = "boundary_steal";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = Duration::time_units(3);
  spec.server.period = Duration::time_units(6);
  spec.server.priority = 30;
  for (int b = 0; b < 6; ++b) {
    for (int j = 0; j < 6; ++j) {
      model::AperiodicJobSpec job;
      job.name = "b" + std::to_string(b) + "_" + std::to_string(j);
      // Releases at exact multiples of the quantum, many per boundary.
      job.release = TimePoint::origin() +
                    Duration::from_tu(1.0 + 8.0 * b + 0.5 * (j % 2));
      job.cost = Duration::from_tu(j % 2 == 0 ? 1.5 : 0.25);
      spec.aperiodic_jobs.push_back(job);
    }
  }
  spec.horizon = TimePoint::origin() + Duration::time_units(64);

  MpRunOptions options;
  options.policy = SchedPolicy::kSemiPartitioned;
  options.quantum = Duration::from_tu(0.5);
  const auto run = mp::run(spec, options);
  ASSERT_GT(run.steals, 0u) << "the clustered workload must trigger steals";
  for (const auto& d : run.channel_deliveries) {
    if (d.kind != exp::ChannelDelivery::Kind::kSteal) continue;
    EXPECT_LT(d.posted, d.delivered)
        << d.job << " was stolen at its own release boundary (mid-bind)";
  }
  std::set<std::string> names;
  for (const auto& o : run.merged.jobs) {
    EXPECT_TRUE(names.insert(o.name).second) << o.name << " merged twice";
  }
  EXPECT_EQ(names.size(), spec.aperiodic_jobs.size());
}

// Stealing moves work but never loses or invents it: the merged released
// count equals the spec's job count on every seed (each job has exactly one
// timed release, stolen or not).
TEST(StealProperty, NoJobLostOrInvented) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto spec = random_spec(seed);
    MpRunOptions options;
    options.policy = SchedPolicy::kSemiPartitioned;
    options.quantum = Duration::from_tu(0.5);
    const auto run = mp::run(spec, options);
    std::set<std::string> names;
    for (const auto& o : run.merged.jobs) {
      EXPECT_TRUE(names.insert(o.name).second)
          << "seed " << seed << ": duplicate outcome for " << o.name;
    }
    EXPECT_EQ(names.size(), spec.aperiodic_jobs.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tsf::mp
