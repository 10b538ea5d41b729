// End-to-end: a multi-core spec file with cross-core channels flows through
// the same path as `tsf_run <spec>` (load_spec_file + run_and_report) and
// produces (a) a byte-identical report across repeated runs — the
// determinism contract of the lock-step runtime — and (b) exactly the
// golden report checked in under tests/integration/golden/ (the partition
// table, served cross-core jobs, channel latency lines and the trace
// fingerprint). On mismatch the actual output lands in the test-artifact
// directory for diffing.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/report.h"
#include "cli/spec_file.h"
#include "support/artifact_dump.h"

#ifndef TSF_SOURCE_DIR
#error "TSF_SOURCE_DIR must point at the repository root"
#endif

namespace tsf::cli {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(TSF_SOURCE_DIR) + "/" + relative;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(SpecRunIntegration, CrossCoreSpecMatchesGoldenReport) {
  const auto outcome =
      load_spec_file(source_path("examples/specs/mp_cross_core.tsf"));
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  ASSERT_EQ(outcome.config.spec.cores, 2);
  ASSERT_TRUE(outcome.config.spec.uses_channels());

  // Three full runs: the report (which embeds the trace fingerprint) must
  // be byte-identical every time.
  const std::string first = run_and_report(outcome.config);
  for (int i = 1; i < 3; ++i) {
    const std::string again = run_and_report(outcome.config);
    ASSERT_EQ(again, first)
        << "run " << i << " diverged; dumped "
        << testing::write_test_artifact("spec_run_repeat.txt", again);
  }

  // Spot-check the semantics before the byte-compare, so a golden drift
  // still tells us whether the machinery (not just formatting) broke.
  EXPECT_NE(first.find("partition (worst-fit-decreasing, 2 cores)"),
            std::string::npos);
  EXPECT_NE(first.find("system verdict: feasible"), std::string::npos);
  EXPECT_NE(first.find("cross-core channels: 3 delivered, 0 failed"),
            std::string::npos);
  EXPECT_NE(first.find("channel latency"), std::string::npos);
  EXPECT_NE(first.find("cross-core response (post to completion)"),
            std::string::npos);
  EXPECT_NE(first.find("trace fingerprint: "), std::string::npos);
  // The triggered jobs on core 1 really got served via the channel.
  EXPECT_EQ(first.find("unserved"), std::string::npos);

  const std::string golden =
      slurp(source_path("tests/integration/golden/mp_cross_core.txt"));
  ASSERT_FALSE(golden.empty())
      << "missing golden file; regenerate with:\n"
         "  ./build/tsf_run examples/specs/mp_cross_core.tsf"
         " > tests/integration/golden/mp_cross_core.txt";
  EXPECT_EQ(first, golden)
      << "report drifted from the golden file; actual output dumped to "
      << testing::write_test_artifact("spec_run_actual.txt", first)
      << "\nif the change is intentional, regenerate the golden file with:\n"
         "  ./build/tsf_run examples/specs/mp_cross_core.tsf"
         " > tests/integration/golden/mp_cross_core.txt";
}

// Shared body for the scheduling-policy golden tests: repeat-run
// determinism plus the byte-compare against the checked-in report.
void check_policy_golden(
    const std::string& spec_rel, const std::string& golden_rel,
    const std::vector<std::string>& must_contain,
    const std::vector<std::string>& must_not_contain = {}) {
  const auto outcome = load_spec_file(source_path(spec_rel));
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  ASSERT_EQ(outcome.config.spec.cores, 2);

  const std::string first = run_and_report(outcome.config);
  for (int i = 1; i < 3; ++i) {
    const std::string again = run_and_report(outcome.config);
    ASSERT_EQ(again, first)
        << "run " << i << " diverged; dumped "
        << testing::write_test_artifact("policy_run_repeat.txt", again);
  }
  for (const auto& needle : must_contain) {
    EXPECT_NE(first.find(needle), std::string::npos) << needle;
  }
  for (const auto& needle : must_not_contain) {
    EXPECT_EQ(first.find(needle), std::string::npos) << needle;
  }

  const std::string golden = slurp(source_path(golden_rel));
  ASSERT_FALSE(golden.empty())
      << "missing golden file; regenerate with:\n  ./build/tsf_run "
      << spec_rel << " > " << golden_rel;
  EXPECT_EQ(first, golden)
      << "report drifted from the golden file; actual output dumped to "
      << testing::write_test_artifact("policy_run_actual.txt", first)
      << "\nif the change is intentional, regenerate with:\n  ./build/tsf_run "
      << spec_rel << " > " << golden_rel;
}

TEST(SpecRunIntegration, SemiPartitionedSpecMatchesGoldenReport) {
  check_policy_golden(
      "examples/specs/mp_policy_semi.tsf",
      "tests/integration/golden/mp_policy_semi.txt",
      {
          "scheduling policy: semi-partitioned",
          "global RTA (Bertogna-style bound): feasible",
          // The burst really triggered a steal and its count is reported.
          "scheduling (semi-partitioned): 0 pool dispatches, 1 steals",
          "served 6/6",
          "trace fingerprint: ",
      });
}

TEST(SpecRunIntegration, GlobalPolicySpecMatchesGoldenReport) {
  check_policy_golden(
      "examples/specs/mp_policy_global.tsf",
      "tests/integration/golden/mp_policy_global.txt",
      {
          "scheduling policy: global",
          // All four unpinned jobs went through the shared ready pool.
          "scheduling (global): 4 pool dispatches, 0 steals",
          // The channel pair still flowed, unchanged by the policy.
          "cross-core channels: 1 delivered, 0 failed",
          "served 6/6",
          "trace fingerprint: ",
      });
}

// Sheds are not channel traffic, so a storm without channel jobs prints no
// channels line.
const std::string kEmptyChannelsLine =
    "cross-core channels: 0 delivered, 0 failed, 0 in flight at horizon";

// Storm specs (emitted by tools/make_storms.cc from the canonical
// generator storms) run under overload = dover; every report must carry
// the value-accrual ratio against the clairvoyant bound and a clean
// forbidden-behavior line. Ratios pinned here are the same cells
// bench/overload.cc gates, so a silent policy regression shows up twice.

TEST(SpecRunIntegration, RouterStormSpecMatchesGoldenReport) {
  check_policy_golden(
      "examples/specs/mp_storm_router.tsf",
      "tests/integration/golden/mp_storm_router.txt",
      {
          "overload (dover, threshold 0.75, period 6tu): 152 shed,"
          " 3 takeovers",
          "value accrual: 64.77 of clairvoyant bound 131.00 (ratio 0.494)",
          "forbidden-behavior check: clean",
          "trace fingerprint: ",
      },
      {kEmptyChannelsLine});
}

TEST(SpecRunIntegration, MarketStormSpecMatchesGoldenReport) {
  check_policy_golden(
      "examples/specs/mp_storm_market.tsf",
      "tests/integration/golden/mp_storm_market.txt",
      {
          "overload (dover, threshold 0.75, period 6tu): 20 shed,"
          " 0 takeovers",
          "value accrual: 80.50 of clairvoyant bound 191.40 (ratio 0.421)",
          "forbidden-behavior check: clean",
          "trace fingerprint: ",
      },
      {kEmptyChannelsLine});
}

TEST(SpecRunIntegration, CascadeStormSpecMatchesGoldenReport) {
  check_policy_golden(
      "examples/specs/mp_storm_cascade.tsf",
      "tests/integration/golden/mp_storm_cascade.txt",
      {
          "overload (dover, threshold 0.75, period 6tu): 122 shed,"
          " 0 takeovers",
          "value accrual: 102.78 of clairvoyant bound 148.79 (ratio 0.691)",
          "forbidden-behavior check: clean",
          "trace fingerprint: ",
      },
      {kEmptyChannelsLine});
}

TEST(SpecRunIntegration, RebalanceSpecMatchesGoldenReport) {
  check_policy_golden(
      "examples/specs/mp_rebalance.tsf",
      "tests/integration/golden/mp_rebalance.txt",
      {
          // The skewed bursts really drifted core 0 and the rebalancer
          // moved its backlog — and with it, every job got served.
          "rebalancing (drift, drift 0.15, period 6tu): 3 passes,"
          " 3 migrations, 0 admissions",
          "post-rebalance utilization: c0=0.250 c1=0.250",
          "served 18/18",
          "trace fingerprint: ",
      });
}

}  // namespace
}  // namespace tsf::cli
