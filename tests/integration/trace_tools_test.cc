// End-to-end: the tsf_run, tsf_trace and bench_trace_stream binaries
// (TSF_RUN_EXE, TSF_TRACE_EXE and TSF_TRACE_STREAM_EXE, injected by CMake)
// keep their documented contracts — `tsf_trace summarize` prints the
// fingerprint of the `tsf_run` report that wrote the trace, and bad input
// (a hostile tsf-trace/1 stream, a malformed --batch count, a malformed
// bench flag) exits 2 with an error instead of aborting or running on.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "common/trace_io.h"

#ifndef TSF_SOURCE_DIR
#error "TSF_SOURCE_DIR must point at the repository root"
#endif
#if !defined(TSF_RUN_EXE) || !defined(TSF_TRACE_EXE) || \
    !defined(TSF_TRACE_STREAM_EXE)
#error "TSF_RUN_EXE, TSF_TRACE_EXE and TSF_TRACE_STREAM_EXE must be defined"
#endif

namespace tsf {
namespace {

struct ToolRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// Runs `exe args` with stdout and stderr captured through files in the
// working directory (the build tree), named per invocation.
ToolRun run_tool(const std::string& exe, const std::string& args) {
  static int counter = 0;
  const std::string stem = "trace_tools_test_" + std::to_string(counter++);
  const std::string out_path = stem + ".out";
  const std::string err_path = stem + ".err";
  const std::string cmd = "'" + exe + "' " + args + " >" + out_path + " 2>" +
                          err_path;
  ToolRun run;
  const int status = std::system(cmd.c_str());
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = slurp(out_path);
  run.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return run;
}

// The hex digits after `label` in `text`, or "" when absent.
std::string hex_after(const std::string& text, const std::string& label) {
  const auto at = text.find(label);
  if (at == std::string::npos) return "";
  const auto begin = text.find_first_not_of(' ', at + label.size());
  const auto end = text.find_first_not_of("0123456789abcdef", begin);
  return text.substr(begin, end - begin);
}

const std::string kCrossCoreSpec =
    std::string(TSF_SOURCE_DIR) + "/examples/specs/mp_cross_core.tsf";

TEST(TraceTools, SummarizePrintsTheReportsFingerprint) {
  const std::string trace = "trace_tools_test_cross_core.trc";
  const ToolRun report = run_tool(
      TSF_RUN_EXE, "'" + kCrossCoreSpec + "' --mode exec --trace " + trace);
  ASSERT_EQ(report.exit_code, 0) << report.err;
  const std::string want = hex_after(report.out, "trace fingerprint:");
  ASSERT_EQ(want.size(), 16u) << report.out;

  const ToolRun summary = run_tool(TSF_TRACE_EXE, "summarize " + trace);
  std::remove(trace.c_str());
  ASSERT_EQ(summary.exit_code, 0) << summary.err;
  EXPECT_EQ(hex_after(summary.out, "fingerprint"), want) << summary.out;
}

// Writes `timeline` as a tsf-trace/1 file at `path`.
void write_file(const std::string& path, const common::Timeline& timeline) {
  std::ofstream out(path, std::ios::binary);
  common::write_trace(out, timeline);
}

TEST(TraceTools, HostileTracesExitTwoNamingTheRecord) {
  using common::TimePoint;
  using common::TraceKind;
  // Second record 5 ticks before the first: the streaming sinks used to
  // abort on it ("fed out of time order").
  common::Timeline backwards;
  backwards.record(TimePoint::at_ticks(0), TraceKind::kRelease, "a");
  backwards.record(TimePoint::at_ticks(-5), TraceKind::kRelease, "a");
  // Two kResumes for one entity: busy_intervals and the streaming sinks
  // used to abort on it ("entity a started twice").
  common::Timeline twice;
  twice.record(TimePoint::at_ticks(0), TraceKind::kResume, "a");
  twice.record(TimePoint::at_ticks(1), TraceKind::kResume, "a");

  for (const auto& [name, timeline] :
       {std::pair{"backwards", &backwards},
        std::pair{"resumed_twice", &twice}}) {
    const std::string path = std::string("trace_tools_test_") + name + ".trc";
    write_file(path, *timeline);
    for (const std::string& args :
         {"summarize " + path, "dump " + path + " --vcd"}) {
      const ToolRun run = run_tool(TSF_TRACE_EXE, args);
      EXPECT_EQ(run.exit_code, 2) << args << '\n' << run.err;
      EXPECT_NE(run.err.find("record 2"), std::string::npos)
          << args << '\n' << run.err;
    }
    std::remove(path.c_str());
  }
}

TEST(TraceTools, BatchCountIsParsedStrictly) {
  const std::string spec = "'" + kCrossCoreSpec + "' --mode exec --batch ";
  for (const char* bad : {"3x", "0", "-3", "+3", "", "99999999999"}) {
    const ToolRun run = run_tool(TSF_RUN_EXE, spec + "'" + bad + "'");
    EXPECT_EQ(run.exit_code, 2) << "--batch '" << bad << "'";
    EXPECT_NE(run.err.find("--batch"), std::string::npos) << run.err;
  }
  EXPECT_EQ(run_tool(TSF_RUN_EXE, spec + "3").exit_code, 0);
}

// Each malformed value exits 2 naming its flag: a lax parse would run
// `--count -1` as 2^64-1 jobs (until killed) and "3x" as 3. The short
// --count ahead of the other bad flags keeps a lax parser's run brief.
TEST(TraceTools, TraceStreamBenchFlagsAreParsedStrictly) {
  for (const auto& [flag, args] :
       {std::pair{"--count", "--count 3x"}, std::pair{"--count", "--count -1"},
        std::pair{"--entities", "--count 3 --entities 2y"},
        std::pair{"--rss-limit-mb", "--count 3 --rss-limit-mb 1z"}}) {
    const ToolRun run = run_tool(TSF_TRACE_STREAM_EXE, args);
    EXPECT_EQ(run.exit_code, 2) << args;
    EXPECT_NE(run.err.find(flag), std::string::npos) << args << '\n'
                                                     << run.err;
  }
  EXPECT_EQ(run_tool(TSF_TRACE_STREAM_EXE,
                     "--count 3 --entities 2 --rss-limit-mb 0")
                .exit_code,
            0);
}

}  // namespace
}  // namespace tsf
