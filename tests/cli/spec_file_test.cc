// Tests for the tsf_run spec-file parser and report generation.
#include "cli/spec_file.h"

#include <gtest/gtest.h>

#include "cli/report.h"

namespace tsf::cli {
namespace {

using common::Duration;
using common::TimePoint;

constexpr const char* kScenario = R"(
# comment
[server]
policy   = polling
capacity = 3
period   = 6
priority = 30
queue    = first-fit

[task tau1]
period   = 6
cost     = 2
priority = 20

[job h1]
release  = 2
cost     = 2
declared = 1.5

[run]
horizon  = 18
mode     = sim
overheads = ideal
gantt    = no
)";

TEST(SpecFile, ParsesFullScenario) {
  const auto outcome = parse_spec(kScenario);
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  const auto& spec = outcome.config.spec;
  EXPECT_EQ(spec.server.policy, model::ServerPolicy::kPolling);
  EXPECT_EQ(spec.server.capacity, Duration::time_units(3));
  EXPECT_EQ(spec.server.period, Duration::time_units(6));
  EXPECT_EQ(spec.server.priority, 30);
  EXPECT_EQ(spec.server.queue, model::QueueDiscipline::kFifoFirstFit);
  ASSERT_EQ(spec.periodic_tasks.size(), 1u);
  EXPECT_EQ(spec.periodic_tasks[0].name, "tau1");
  EXPECT_EQ(spec.periodic_tasks[0].cost, Duration::time_units(2));
  ASSERT_EQ(spec.aperiodic_jobs.size(), 1u);
  EXPECT_EQ(spec.aperiodic_jobs[0].name, "h1");
  EXPECT_EQ(spec.aperiodic_jobs[0].release,
            TimePoint::origin() + Duration::time_units(2));
  EXPECT_EQ(spec.aperiodic_jobs[0].declared_cost, Duration::ticks(1500));
  EXPECT_EQ(spec.horizon, TimePoint::origin() + Duration::time_units(18));
  EXPECT_EQ(outcome.config.mode, RunMode::kSim);
  EXPECT_FALSE(outcome.config.gantt);
}

TEST(SpecFile, FractionalTimesResolveToTicks) {
  const auto outcome = parse_spec(
      "[server]\npolicy=deferrable\ncapacity=0.5\nperiod=1.25\n"
      "[run]\nhorizon=10\n");
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  EXPECT_EQ(outcome.config.spec.server.capacity, Duration::ticks(500));
  EXPECT_EQ(outcome.config.spec.server.period, Duration::ticks(1250));
}

TEST(SpecFile, MissingHorizonIsAnError) {
  const auto outcome = parse_spec("[server]\npolicy=none\n");
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.errors.front().find("horizon"), std::string::npos);
}

TEST(SpecFile, UnknownKeysReportedWithLineNumbers) {
  const auto outcome =
      parse_spec("[server]\npolicy = polling\nbogus = 1\n[run]\nhorizon=5\n");
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.errors.front().find("line 3"), std::string::npos);
  EXPECT_NE(outcome.errors.front().find("bogus"), std::string::npos);
}

TEST(SpecFile, BadNumbersRejected) {
  const auto outcome = parse_spec(
      "[server]\npolicy=polling\ncapacity = lots\nperiod = 6\n"
      "[run]\nhorizon = 10\n");
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.errors.front().find("number"), std::string::npos);
}

// Hostile numbers: each of these used to abort the run or slip through as
// a garbage value. Now each is a spec error on its own line.
std::string hostile_spec(const std::string& server_key,
                         const std::string& run_key) {
  return "[server]\npolicy = polling\ncapacity = 2\nperiod = 6\n" +
         server_key + "\n[run]\nhorizon = 18\nmode = exec\n" + run_key +
         "\n";
}

void expect_one_error_on_line(const std::string& text, int line,
                              const std::string& fragment) {
  const auto outcome = parse_spec(text);
  ASSERT_EQ(outcome.errors.size(), 1u) << text;
  EXPECT_EQ(outcome.errors.front().rfind("line " + std::to_string(line) + ":",
                                         0),
            0u)
      << outcome.errors.front();
  EXPECT_NE(outcome.errors.front().find(fragment), std::string::npos)
      << outcome.errors.front();
}

TEST(SpecFile, RejectsNanPeriod) {
  expect_one_error_on_line(hostile_spec("period = nan", ""), 5, "finite");
}

TEST(SpecFile, RejectsInfiniteCapacity) {
  expect_one_error_on_line(hostile_spec("capacity = inf", ""), 5, "finite");
}

TEST(SpecFile, RejectsHorizonAtOrBeyondNever) {
  expect_one_error_on_line(hostile_spec("", "horizon = 1e300"), 9,
                           "too long");
  // 2^60 ticks is Duration::infinite(), the "never" sentinel itself.
  expect_one_error_on_line(
      hostile_spec("", "horizon = 1152921504606846.976"), 9, "too long");
  const auto below = parse_spec(
      hostile_spec("", "horizon = 1152921504606846"));
  EXPECT_TRUE(below.ok()) << below.errors.front();
}

TEST(SpecFile, RejectsCoresOutsideInt) {
  expect_one_error_on_line(hostile_spec("", "cores = 1e30"), 9,
                           "out of range");
  expect_one_error_on_line(hostile_spec("", "cores = -1e30"), 9,
                           "out of range");
}

TEST(SpecFile, NamelessTaskRejected) {
  const auto outcome = parse_spec("[task]\nperiod=5\ncost=1\n"
                                  "[run]\nhorizon=10\n");
  ASSERT_FALSE(outcome.ok());
}

TEST(SpecFile, KeyOutsideSectionRejected) {
  const auto outcome = parse_spec("period = 5\n[run]\nhorizon=10\n");
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.errors.front().find("outside"), std::string::npos);
}

TEST(SpecFile, ZeroCostTaskRejected) {
  const auto outcome = parse_spec(
      "[server]\npolicy=none\n[task t]\nperiod=5\n[run]\nhorizon=10\n");
  ASSERT_FALSE(outcome.ok());
}

TEST(SpecFile, ServerWithoutBudgetRejectedUnlessNone) {
  EXPECT_FALSE(parse_spec("[server]\npolicy=polling\n[run]\nhorizon=1\n").ok());
  EXPECT_TRUE(parse_spec("[server]\npolicy=none\n[run]\nhorizon=1\n").ok());
}

TEST(SpecFile, CollectsMultipleErrors) {
  const auto outcome = parse_spec(
      "[server]\npolicy = martian\nqueue = heap\n[run]\nmode = sideways\n");
  EXPECT_GE(outcome.errors.size(), 4u);  // policy, queue, mode, horizon
}

TEST(SpecFile, LoadMissingFileFails) {
  const auto outcome = load_spec_file("/nonexistent/path.tsf");
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.errors.front().find("cannot open"), std::string::npos);
}

TEST(Report, RendersScenarioTwoOnBothEngines) {
  auto outcome = parse_spec(kScenario);
  ASSERT_TRUE(outcome.ok());
  outcome.config.mode = RunMode::kBoth;
  const std::string report = run_and_report(outcome.config);
  EXPECT_NE(report.find("simulation (theoretical policies)"),
            std::string::npos);
  EXPECT_NE(report.find("execution (RTSJ-style runtime)"), std::string::npos);
  EXPECT_NE(report.find("h1"), std::string::npos);
  EXPECT_NE(report.find("served 1/1"), std::string::npos);
}

TEST(Report, GanttIncludedWhenRequested) {
  auto outcome = parse_spec(kScenario);
  ASSERT_TRUE(outcome.ok());
  outcome.config.gantt = true;
  outcome.config.mode = RunMode::kSim;
  const std::string report = run_and_report(outcome.config);
  EXPECT_NE(report.find('#'), std::string::npos);  // busy cells
}

constexpr const char* kMultiCore = R"(
[server]
policy   = polling
capacity = 2
period   = 6
priority = 30

[task tau1]
period   = 6
cost     = 2
priority = 20
affinity = 1

[task tau2]
period   = 12
cost     = 3
priority = 10

[job h1]
release  = 2
cost     = 1
affinity = 0

[run]
horizon  = 18
cores    = 2
partition = wfd
mode     = sim
gantt    = no
)";

TEST(SpecFile, ParsesCoresAndAffinity) {
  const auto outcome = parse_spec(kMultiCore);
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  const auto& config = outcome.config;
  EXPECT_EQ(config.spec.cores, 2);
  EXPECT_EQ(config.partition, mp::PackingStrategy::kWorstFitDecreasing);
  ASSERT_EQ(config.spec.periodic_tasks.size(), 2u);
  EXPECT_EQ(config.spec.periodic_tasks[0].affinity, 1);
  EXPECT_EQ(config.spec.periodic_tasks[1].affinity, -1);
  ASSERT_EQ(config.spec.aperiodic_jobs.size(), 1u);
  EXPECT_EQ(config.spec.aperiodic_jobs[0].affinity, 0);
}

TEST(SpecFile, DefaultsToOneCoreAndFfd) {
  const auto outcome = parse_spec(kScenario);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.config.spec.cores, 1);
  EXPECT_EQ(outcome.config.partition,
            mp::PackingStrategy::kFirstFitDecreasing);
}

TEST(SpecFile, RejectsAffinityBeyondCores) {
  std::string text = kMultiCore;
  const auto pos = text.find("cores    = 2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "cores    = 1");
  const auto outcome = parse_spec(text);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.errors.front().find("pinned to core"), std::string::npos);
}

TEST(SpecFile, RejectsNegativeAffinityAndZeroCores) {
  const auto bad = parse_spec(
      "[server]\npolicy=none\n"
      "[task t]\nperiod=6\ncost=1\naffinity=-2\n[run]\nhorizon=6\ncores=0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.errors.size(), 2u);
}

constexpr const char* kChannels = R"(
[server]
policy   = deferrable
capacity = 2
period   = 6
priority = 30
[job ping]
release  = 1
cost     = 1
affinity = 0
fires    = pong
[job pong]
triggered = yes
cost      = 1
affinity  = 1
[job roam]
release  = 3
cost     = 1
migrate  = yes
[run]
horizon  = 18
cores    = 2
quantum  = 0.5
channel_latency = 0.25
mode     = exec
gantt    = no
)";

TEST(SpecFile, ParsesChannelKeys) {
  const auto outcome = parse_spec(kChannels);
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  const auto& jobs = outcome.config.spec.aperiodic_jobs;
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].fires, "pong");
  EXPECT_FALSE(jobs[0].triggered);
  EXPECT_TRUE(jobs[1].triggered);
  EXPECT_TRUE(jobs[1].fires.empty());
  EXPECT_TRUE(jobs[2].migrate);
  EXPECT_TRUE(outcome.config.spec.uses_channels());
  EXPECT_EQ(outcome.config.quantum, Duration::ticks(500));
  EXPECT_EQ(outcome.config.spec.channel_latency, Duration::ticks(250));
}

TEST(SpecFile, RejectsUnknownFireTargetAndSelfFire) {
  std::string text = kChannels;
  auto pos = text.find("fires    = pong");
  text.replace(pos, 15, "fires    = gone");
  const auto unknown = parse_spec(text);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.errors.front().find("fires unknown job"),
            std::string::npos);

  text = kChannels;
  pos = text.find("fires    = pong");
  text.replace(pos, 15, "fires    = ping");
  const auto self = parse_spec(text);
  ASSERT_FALSE(self.ok());
  EXPECT_NE(self.errors.front().find("cannot fire itself"),
            std::string::npos);
}

TEST(SpecFile, RejectsInconsistentChannelRoles) {
  // triggered + release
  auto bad = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\ntriggered=yes\nrelease=2\ncost=1\n[run]\nhorizon=9\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("cannot also have a release"),
            std::string::npos);
  // migrate + affinity
  bad = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nmigrate=yes\naffinity=1\ncost=1\n[run]\nhorizon=9\ncores=2\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("cannot both migrate and pin"),
            std::string::npos);
  // migrate + triggered
  bad = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nmigrate=yes\ntriggered=yes\ncost=1\n[run]\nhorizon=9\n");
  ASSERT_FALSE(bad.ok());
  // channel jobs without a server
  bad = parse_spec(
      "[server]\npolicy=none\n"
      "[job a]\nrelease=1\ncost=1\nfires=b\n[job b]\ntriggered=yes\ncost=1\n"
      "[run]\nhorizon=9\ncores=2\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("need an aperiodic server"),
            std::string::npos);
  // duplicate job names (channels route by name)
  bad = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nrelease=1\ncost=1\n[job a]\nrelease=2\ncost=1\n"
      "[run]\nhorizon=9\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("duplicate job name"), std::string::npos);
}

TEST(SpecFile, RejectsZeroQuantum) {
  const auto bad = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\nquantum=0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("quantum must be positive"),
            std::string::npos);
}

TEST(SpecFile, ParsesSchedulingPolicyKey) {
  const auto base =
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nrelease=1\ncost=1\n[run]\nhorizon=9\ncores=2\npolicy=";
  const auto def = parse_spec(std::string(base) + "partitioned\n");
  ASSERT_TRUE(def.ok()) << def.errors.front();
  EXPECT_EQ(def.config.policy, mp::SchedPolicy::kPartitioned);

  const auto global = parse_spec(std::string(base) + "global\n");
  ASSERT_TRUE(global.ok()) << global.errors.front();
  EXPECT_EQ(global.config.policy, mp::SchedPolicy::kGlobal);

  // Both spellings of semi-partitioned.
  for (const char* spelling : {"semi", "semi-partitioned"}) {
    const auto semi = parse_spec(std::string(base) + spelling + "\n");
    ASSERT_TRUE(semi.ok()) << semi.errors.front();
    EXPECT_EQ(semi.config.policy, mp::SchedPolicy::kSemiPartitioned)
        << spelling;
  }
}

TEST(SpecFile, RejectsUnknownAndUniprocessorSchedulingPolicy) {
  const auto unknown = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\ncores=2\npolicy=gang\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.errors.front().find("unknown scheduling policy"),
            std::string::npos);

  // global/semi are meaningless on one core: reject instead of silently
  // running the uniprocessor path.
  const auto uni = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\npolicy=semi\n");
  ASSERT_FALSE(uni.ok());
  EXPECT_NE(uni.errors.front().find("needs a multi-core run"),
            std::string::npos);
}

TEST(Report, ChannelSpecReportsLatencyAndResponse) {
  auto outcome = parse_spec(kChannels);
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  const std::string report = run_and_report(outcome.config);
  EXPECT_NE(report.find("cross-core channels:"), std::string::npos);
  EXPECT_NE(report.find("channel latency (quantum 0.5tu)"),
            std::string::npos);
  EXPECT_NE(report.find("cross-core response (post to completion)"),
            std::string::npos);
}

TEST(SpecFile, ParsesRebalanceKeys) {
  const auto outcome = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nrelease=1\ncost=1\n"
      "[run]\nhorizon=18\ncores=2\n"
      "rebalance=drift\nrebalance_drift=0.2\nrebalance_period=4\n");
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  EXPECT_EQ(outcome.config.rebalance.mode, mp::RebalanceMode::kDrift);
  EXPECT_DOUBLE_EQ(outcome.config.rebalance.drift, 0.2);
  EXPECT_EQ(outcome.config.rebalance.period, Duration::time_units(4));

  const auto admit = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[run]\nhorizon=18\ncores=2\nrebalance=admit\n");
  ASSERT_TRUE(admit.ok()) << admit.errors.front();
  EXPECT_EQ(admit.config.rebalance.mode, mp::RebalanceMode::kAdmit);
  // Defaults stand when only the mode is given.
  EXPECT_DOUBLE_EQ(admit.config.rebalance.drift, mp::RebalanceConfig{}.drift);
  EXPECT_EQ(admit.config.rebalance.period, mp::RebalanceConfig{}.period);
}

TEST(SpecFile, RejectsBadRebalanceValues) {
  auto bad = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\ncores=2\nrebalance=always\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("unknown rebalance mode"),
            std::string::npos);

  bad = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\ncores=2\n"
      "rebalance=drift\nrebalance_drift=0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("rebalance_drift must be positive"),
            std::string::npos);

  bad = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\ncores=2\n"
      "rebalance=drift\nrebalance_period=0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("rebalance_period must be positive"),
            std::string::npos);

  // Rebalancing needs the multi-core runtime, like the policies.
  bad = parse_spec("[server]\npolicy=none\n[run]\nhorizon=9\nrebalance=drift\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("needs a multi-core run"),
            std::string::npos);
}

TEST(SpecFile, UnknownKeySuggestsNearestKnownKey) {
  // One edit away ("priorty" -> "priority") in a task section.
  auto bad = parse_spec(
      "[server]\npolicy=none\n[task t]\nperiod=6\ncost=1\npriorty=3\n"
      "[run]\nhorizon=9\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("did you mean 'priority'"),
            std::string::npos)
      << bad.errors.front();

  // A dropped letter in the run section ("bach" -> "batch").
  bad = parse_spec("[server]\npolicy=none\n[run]\nhorizon=9\nbach=4\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("did you mean 'batch'"),
            std::string::npos)
      << bad.errors.front();

  // Server and job sections suggest from their own vocabularies.
  bad = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\nmargn=1\n"
      "[run]\nhorizon=9\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("did you mean 'margin'"),
            std::string::npos);
  bad = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nrelease=1\ncost=1\nmigrat=yes\n[run]\nhorizon=9\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("did you mean 'migrate'"),
            std::string::npos);
}

TEST(SpecFile, UnknownKeyFarFromEverythingGetsNoSuggestion) {
  const auto bad = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\nzzzzzzzz=1\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.errors.front().find("did you mean"), std::string::npos)
      << bad.errors.front();
}

TEST(SpecFile, EnumErrorsListTheValidValues) {
  const auto policy = parse_spec(
      "[server]\npolicy=martian\n[run]\nhorizon=9\n");
  ASSERT_FALSE(policy.ok());
  EXPECT_NE(policy.errors.front().find(
                "(none|background|polling|deferrable|sporadic)"),
            std::string::npos)
      << policy.errors.front();

  const auto mode = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\nmode=sideways\n");
  ASSERT_FALSE(mode.ok());
  EXPECT_NE(mode.errors.front().find("(sim|exec|both)"), std::string::npos);

  const auto queue = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\nqueue=heap\n"
      "[run]\nhorizon=9\n");
  ASSERT_FALSE(queue.ok());
  EXPECT_NE(queue.errors.front().find("(fifo|first-fit|list-of-lists)"),
            std::string::npos);

  const auto overheads = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\noverheads=cheap\n");
  ASSERT_FALSE(overheads.ok());
  EXPECT_NE(overheads.errors.front().find("(ideal|paper)"),
            std::string::npos);
}

TEST(SpecFile, ParsesBatchKey) {
  const auto outcome = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nrelease=1\ncost=1\n"
      "[run]\nhorizon=9\nmode=exec\nbatch=16\n");
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  EXPECT_EQ(outcome.config.exec_options.batch, 16);
  // Default is per-event dispatch.
  const auto plain = parse_spec(kScenario);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.config.exec_options.batch, 1);
}

TEST(SpecFile, RejectsBadBatchValues) {
  auto bad = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\nmode=exec\nbatch=0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("batch must be at least 1"),
            std::string::npos);

  // batch is an execution-engine knob; a sim-only run can't honour it.
  bad = parse_spec(
      "[server]\npolicy=none\n[run]\nhorizon=9\nmode=sim\nbatch=4\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("batch applies to the execution engine"),
            std::string::npos);
}

TEST(SpecFile, BatchSurvivesOverheadsPreset) {
  // `overheads = paper` replaces the whole ExecOptions block; batch (and
  // overload) set before it must survive the swap.
  const auto outcome = parse_spec(
      "[server]\npolicy=polling\ncapacity=2\nperiod=6\n"
      "[job a]\nrelease=1\ncost=1\n"
      "[run]\nhorizon=9\nmode=exec\nbatch=8\noverheads=paper\n");
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  EXPECT_EQ(outcome.config.exec_options.batch, 8);
}

TEST(Report, MultiCoreReportShowsPartitionAndVerdict) {
  auto outcome = parse_spec(kMultiCore);
  ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
  const std::string report = run_and_report(outcome.config);
  EXPECT_NE(report.find("partition (worst-fit-decreasing, 2 cores)"),
            std::string::npos);
  EXPECT_NE(report.find("system verdict: feasible"), std::string::npos);
  EXPECT_NE(report.find("partitioned simulation"), std::string::npos);
  EXPECT_NE(report.find("h1"), std::string::npos);
}

}  // namespace
}  // namespace tsf::cli
