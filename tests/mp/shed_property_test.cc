// Property fuzz of the overload subsystem: 200 random storm seeds (shape,
// seed and overload factor all varied) x all three overload modes, each run
// through the partitioned exec engine and held to the forbidden-behavior
// contract:
//
//   * the machine-checked invariants (common::InvariantChecker via
//     mp::check_overload_invariants) report nothing — never shed admitted
//     work, never serve shed work, exactly-once shed ledger, no admitted
//     deadline miss while sheddable work was served;
//   * outcome/ledger reconciliation — a job is never both served and shed,
//     every shed outcome has exactly one kShed ledger event and vice versa,
//     and no (job, release) is booked by two cores;
//   * determinism — rerunning the same cell reproduces the trace
//     fingerprint bit-for-bit (checked 3x on a rotating subset so the suite
//     stays inside the mp-label time budget).
//
// Storms here are scaled down from the bench's canonical parameters (short
// horizon, 1tu server replicas) so 600 runs stay fast; the full-size storms
// are exercised by bench/overload.cc and the golden integration tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/trace.h"
#include "gen/storms.h"
#include "mp/mp_system.h"
#include "mp/overload.h"
#include "support/booking_checks.h"

namespace tsf::mp {
namespace {

using common::Duration;

constexpr int kSeeds = 200;

MpRunOptions storm_options(exp::OverloadMode mode) {
  MpRunOptions options;
  options.quantum = Duration::from_tu(0.5);
  options.exec.overload.mode = mode;
  options.exec.overload.threshold = 0.75;
  options.exec.overload.period = Duration::time_units(6);
  return options;
}

TEST(ShedProperty, StormSeedsUnderAllModesKeepTheContract) {
  const gen::StormShape shapes[] = {gen::StormShape::kRouterPacketStorm,
                                    gen::StormShape::kMarketOpenBurst,
                                    gen::StormShape::kCascadingFaultBurst};
  const exp::OverloadMode modes[] = {exp::OverloadMode::kOff,
                                     exp::OverloadMode::kShed,
                                     exp::OverloadMode::kDover};
  for (int i = 0; i < kSeeds; ++i) {
    gen::StormParams params;
    params.shape = shapes[i % 3];
    params.seed = 40'000 + static_cast<std::uint64_t>(i);
    params.server_capacity = Duration::time_units(1);
    params.horizon_periods = 4;
    // Sweep from mild (1.25x) to brutal (3.25x) overload.
    params.overload_factor = 1.25 + 0.5 * (i % 5);
    const auto spec = gen::make_storm(params);

    for (const auto mode : modes) {
      SCOPED_TRACE("seed " + std::to_string(params.seed) + " shape " +
                   gen::to_string(params.shape) + " mode " +
                   exp::to_string(mode));
      const auto options = storm_options(mode);
      const auto run = mp::run(spec, options);

      // Machine-checked forbidden behaviors, straight off the trace.
      const auto violations = check_overload_invariants(spec, run);
      EXPECT_TRUE(violations.empty())
          << violations.size() << " violation(s), first: "
          << violations.front().name << " (" << violations.front().detail
          << ")";

      EXPECT_EQ(testing::find_cross_core_booking(run.per_core), "");

      // Outcome-level: shed work is never served and vice versa.
      std::set<std::pair<std::string, std::int64_t>> shed_outcomes;
      for (const auto& job : run.merged.jobs) {
        EXPECT_FALSE(job.served && job.shed) << job.name;
        if (job.shed) {
          shed_outcomes.emplace(job.name, job.release.ticks());
        }
      }
      if (mode == exp::OverloadMode::kOff) {
        EXPECT_TRUE(shed_outcomes.empty());
        EXPECT_TRUE(run.merged.shed_events.empty());
      }

      // Exactly-once ledger: the kShed events and the shed outcomes are
      // the same set, with no duplicate entries.
      std::set<std::pair<std::string, std::int64_t>> ledger;
      for (const auto& event : run.merged.shed_events) {
        if (event.kind != model::ShedEvent::Kind::kShed) continue;
        const auto key =
            std::make_pair(event.job, event.release.ticks());
        EXPECT_TRUE(ledger.insert(key).second)
            << "duplicate shed ledger entry for " << event.job;
      }
      EXPECT_EQ(ledger, shed_outcomes);

      // Determinism: every 10th seed reruns the cell twice more and the
      // trace fingerprint must not move.
      if (i % 10 == 0) {
        const auto fp = common::fingerprint(run.merged.timeline);
        for (int repeat = 0; repeat < 2; ++repeat) {
          const auto again = mp::run(spec, options);
          EXPECT_EQ(common::fingerprint(again.merged.timeline), fp)
              << "repeat " << repeat;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tsf::mp
