// The VCD writer against the builder it replaced. `parent::to_vcd` below is
// a verbatim copy of the sort-based common::to_vcd that `tsf_run --vcd` and
// `tsf_trace dump --vcd` called before every VCD went through
// common::StreamingVcd: it scanned the whole timeline once per row with
// busy_intervals, then sorted the edges. The writer must match it byte for
// byte on engine traces (every example spec on both engines and both
// steppers; single-core runs with the report's job-then-task rows;
// generated systems) and on hand-built timelines. The one intended
// difference, a window still open when the stream ends, is pinned by a
// test of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/spec_file.h"
#include "common/trace.h"
#include "common/trace_stream.h"
#include "exp/exec_runner.h"
#include "gen/generator.h"
#include "mp/mp_system.h"
#include "sim/simulator.h"

#ifndef TSF_SOURCE_DIR
#error "TSF_SOURCE_DIR must point at the repository root"
#endif

namespace tsf::common {
namespace {

namespace parent {

std::string to_vcd(const Timeline& timeline,
                   const std::vector<std::string>& rows) {
  std::ostringstream oss;
  oss << "$timescale 1us $end\n$scope module tsf $end\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string name = rows[i];
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    oss << "$var wire 1 " << vcd_identifier(i) << ' ' << name << " $end\n";
  }
  oss << "$upscope $end\n$enddefinitions $end\n";

  // Gather transitions: (time, signal, level).
  struct Edge {
    std::int64_t at;
    std::size_t signal;
    bool level;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const auto& iv : timeline.busy_intervals(rows[i])) {
      edges.push_back({iv.begin.ticks(), i, true});
      edges.push_back({iv.end.ticks(), i, false});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.signal != b.signal) return a.signal < b.signal;
    return a.level < b.level;  // falling edge before rising at the same time
  });

  oss << "#0\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    oss << '0' << vcd_identifier(i) << '\n';
  }
  std::int64_t current = 0;
  for (const auto& e : edges) {
    if (e.at != current) {
      current = e.at;
      oss << '#' << current << '\n';
    }
    oss << (e.level ? '1' : '0') << vcd_identifier(e.signal) << '\n';
  }
  return oss.str();
}

}  // namespace parent

std::string replay(StreamingVcd& vcd, const Timeline& t) {
  for (const auto& r : t.records()) {
    vcd.record(r.at, r.kind, r.who, r.value, r.note);
  }
  std::ostringstream out;
  vcd.finish(out);
  return out.str();
}

// The writer with one wire per row must equal the parent on `rows`.
void expect_rows_match(const Timeline& t,
                       const std::vector<std::string>& rows,
                       const std::string& what) {
  StreamingVcd vcd(rows);
  EXPECT_EQ(replay(vcd, t), parent::to_vcd(t, rows)) << what;
}

// The writer in first-appearance order must equal the parent on every
// entity, as `tsf_run` on a multi-core spec and `tsf_trace dump` called it.
void expect_entities_match(const Timeline& t, const std::string& what) {
  StreamingVcd vcd;
  EXPECT_EQ(replay(vcd, t), parent::to_vcd(t, t.entities())) << what;
}

std::vector<std::string> spec_rows(const model::SystemSpec& spec) {
  std::vector<std::string> rows;
  for (const auto& job : spec.aperiodic_jobs) rows.push_back(job.name);
  for (const auto& task : spec.periodic_tasks) rows.push_back(task.name);
  return rows;
}

TimePoint at(std::int64_t ticks) { return TimePoint::at_ticks(ticks); }

const char* const kExampleSpecs[] = {
    "mp_cross_core",    "mp_policy_global", "mp_policy_semi",
    "mp_quad",          "mp_rebalance",     "mp_storm_cascade",
    "mp_storm_market",  "mp_storm_router",
};

cli::CliConfig load_example(const std::string& name) {
  const auto outcome = cli::load_spec_file(std::string(TSF_SOURCE_DIR) +
                                           "/examples/specs/" + name + ".tsf");
  EXPECT_TRUE(outcome.ok()) << name;
  return outcome.config;
}

// The merged multi-core runs `tsf_run` reports: the simulator, and the
// execution engine on the lock-step and the threads stepper.
TEST(VcdReference, ExampleSpecsOnEveryEngineAndStepper) {
  for (const char* name : kExampleSpecs) {
    const cli::CliConfig config = load_example(name);
    mp::MpRunOptions options;
    options.strategy = config.partition;
    options.policy = config.policy;
    options.exec = config.exec_options;
    options.quantum = config.quantum;
    options.rebalance = config.rebalance;

    options.engine = mp::RunEngine::kSim;
    const auto sim = mp::run(config.spec, options);
    expect_entities_match(sim.merged.timeline, std::string(name) + " sim");

    options.engine = mp::RunEngine::kExec;
    for (const auto& [backend, label] :
         {std::pair{mp::ExecBackend::kLockstep, " exec lockstep"},
          std::pair{mp::ExecBackend::kThreads, " exec threads"}}) {
      options.backend = backend;
      const auto exec = mp::run(config.spec, options);
      ASSERT_FALSE(exec.merged.timeline.records().empty()) << name;
      expect_entities_match(exec.merged.timeline, name + std::string(label));
    }
  }
}

// Each example spec squeezed onto one core, as `tsf_run` writes a
// single-core VCD: the spec's jobs, then its tasks.
TEST(VcdReference, SingleCoreRunsWithTheReportsRows) {
  for (const char* name : kExampleSpecs) {
    cli::CliConfig config = load_example(name);
    model::SystemSpec& spec = config.spec;
    spec.cores = 1;
    for (auto& task : spec.periodic_tasks) task.affinity = -1;
    for (auto& job : spec.aperiodic_jobs) {
      job.affinity = -1;
      job.migrate = false;
    }
    config.exec_options.overload = {};
    const auto rows = spec_rows(spec);
    expect_rows_match(sim::simulate(spec).timeline, rows,
                      std::string(name) + " sim");
    const auto exec = exp::run_exec(spec, config.exec_options);
    ASSERT_FALSE(exec.timeline.records().empty()) << name;
    expect_rows_match(exec.timeline, rows, std::string(name) + " exec");
    expect_entities_match(exec.timeline, std::string(name) + " exec");
  }
}

// Generated single-core systems under every server policy, on the ideal
// machine and with the paper's overheads (which interrupt handlers).
TEST(VcdReference, GeneratedSingleCoreSystems) {
  model::PeriodicTaskSpec tau;
  tau.name = "tau";
  tau.period = Duration::time_units(8);
  tau.cost = Duration::time_units(2);
  tau.priority = 20;
  for (const auto policy :
       {model::ServerPolicy::kPolling, model::ServerPolicy::kDeferrable,
        model::ServerPolicy::kSporadic, model::ServerPolicy::kBackground}) {
    gen::GeneratorParams params;
    params.policy = policy;
    params.task_density = 1.5;
    params.nb_generation = 10;
    params.periodic_tasks = {tau};
    for (const auto& spec : gen::RandomSystemGenerator(params).generate()) {
      const auto rows = spec_rows(spec);
      const std::string what =
          std::string(model::to_string(policy)) + " " + spec.name;
      expect_rows_match(sim::simulate(spec).timeline, rows, what + " sim");
      for (const auto& options : {exp::ideal_execution_options(),
                                  exp::paper_execution_options()}) {
        const auto exec = exp::run_exec(spec, options);
        expect_rows_match(exec.timeline, rows, what + " exec");
        expect_entities_match(exec.timeline, what + " exec");
      }
    }
  }
}

TEST(VcdReference, HandBuiltTimelines) {
  // Hand-offs at one instant, in both wire orders; a zero-length window
  // beside a real one; a close and a reopen at one instant; marks and
  // notes between; closes of windows that never opened.
  Timeline t;
  t.record(at(0), TraceKind::kRelease, "b");
  t.record(at(0), TraceKind::kStart, "a");
  t.record(at(50), TraceKind::kPreempt, "a");
  t.record(at(50), TraceKind::kResume, "b");
  t.record(at(60), TraceKind::kComplete, "c");
  t.record(at(70), TraceKind::kStart, "c");
  t.record(at(70), TraceKind::kAbort, "c");
  t.record(at(70), TraceKind::kNote, "a", 3, "note, with a comma");
  t.record(at(90), TraceKind::kPreempt, "b");
  t.record(at(90), TraceKind::kResume, "a");
  t.record(at(90), TraceKind::kPreempt, "a");
  t.record(at(90), TraceKind::kResume, "a");
  t.record(at(95), TraceKind::kFire, "b");
  t.record(at(100), TraceKind::kComplete, "a");
  t.record(at(100), TraceKind::kResume, "b");
  t.record(at(100), TraceKind::kResume, "c");
  t.record(at(120), TraceKind::kPreempt, "c");
  t.record(at(120), TraceKind::kPreempt, "b");
  t.record(at(120), TraceKind::kStart, "my task");
  t.record(at(130), TraceKind::kComplete, "my task");
  expect_entities_match(t, "first appearance");
  // Rows in another order, rows that never appear, entities outside them.
  expect_rows_match(t, {"c", "a"}, "subset");
  expect_rows_match(t, {"ghost", "b", "my task", "a", "c", "idle"}, "ghosts");
  expect_rows_match(t, {}, "no rows");
  expect_rows_match(Timeline{}, {"a"}, "empty timeline");

  // A trace whose first instant is not zero, with more wires than one
  // identifier character covers: e<i> runs in [1000 + i, 1001 + 2i).
  Timeline late;
  std::vector<std::string> rows;
  for (int tick = 1000; tick < 1400; ++tick) {
    const int i = tick - 1000;
    if (i % 2 == 1 && i / 2 < 200) {
      late.record(at(tick), TraceKind::kComplete, "e" + std::to_string(i / 2));
    }
    if (i < 200) {
      late.record(at(tick), TraceKind::kStart, "e" + std::to_string(i));
      if (i % 2 == 0) rows.push_back("e" + std::to_string(i));
    }
  }
  expect_entities_match(late, "late start");
  expect_rows_match(late, rows, "every other wire");
}

// The one intended change: the parent built edges from closed windows
// only, so a window still open at the end of the stream left no edge at
// all. The writer keeps its rise. Engine traces close every window by the
// horizon, so no engine output moves.
TEST(VcdReference, WindowOpenAtStreamEndKeepsItsRise) {
  Timeline t;
  t.record(at(100), TraceKind::kStart, "a");
  t.record(at(150), TraceKind::kComplete, "a");
  t.record(at(200), TraceKind::kResume, "a");
  StreamingVcd vcd;
  const std::string streamed = replay(vcd, t);
  const std::string old = parent::to_vcd(t, {"a"});
  EXPECT_EQ(old.find("#200"), std::string::npos) << old;
  EXPECT_EQ(streamed, old + "#200\n1!\n");
}

}  // namespace
}  // namespace tsf::common
