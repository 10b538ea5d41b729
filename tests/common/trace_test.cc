#include "common/trace.h"

#include <gtest/gtest.h>

namespace tsf::common {
namespace {

TimePoint at(std::int64_t tu) {
  return TimePoint::origin() + Duration::time_units(tu);
}

TEST(Timeline, BusyIntervalsPairStartsWithStops) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "a");
  t.record(at(2), TraceKind::kPreempt, "a");
  t.record(at(5), TraceKind::kResume, "a");
  t.record(at(7), TraceKind::kComplete, "a");
  const auto iv = t.busy_intervals("a");
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], (Interval{at(0), at(2)}));
  EXPECT_EQ(iv[1], (Interval{at(5), at(7)}));
}

TEST(Timeline, ZeroLengthIntervalsDropped) {
  Timeline t;
  t.record(at(3), TraceKind::kResume, "a");
  t.record(at(3), TraceKind::kPreempt, "a");
  EXPECT_TRUE(t.busy_intervals("a").empty());
}

TEST(Timeline, IntervalsIsolatedPerEntity) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "a");
  t.record(at(1), TraceKind::kResume, "b");
  t.record(at(2), TraceKind::kPreempt, "b");
  t.record(at(4), TraceKind::kAbort, "a");
  ASSERT_EQ(t.busy_intervals("a").size(), 1u);
  ASSERT_EQ(t.busy_intervals("b").size(), 1u);
  EXPECT_EQ(t.busy_intervals("a")[0], (Interval{at(0), at(4)}));
}

TEST(Timeline, MarksFilterByKindAndEntity) {
  Timeline t;
  t.record(at(1), TraceKind::kRelease, "x");
  t.record(at(2), TraceKind::kFire, "x");
  t.record(at(3), TraceKind::kRelease, "y");
  t.record(at(4), TraceKind::kRelease, "x");
  const auto marks = t.marks("x", TraceKind::kRelease);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0], at(1));
  EXPECT_EQ(marks[1], at(4));
}

TEST(Timeline, EntitiesInFirstAppearanceOrder) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "b");
  t.record(at(1), TraceKind::kResume, "a");
  t.record(at(2), TraceKind::kPreempt, "b");
  const auto e = t.entities();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], "b");
  EXPECT_EQ(e[1], "a");
}

TEST(Timeline, CsvHasHeaderAndRows) {
  Timeline t;
  t.record(at(1), TraceKind::kRelease, "x", 42, "note");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("ticks,kind,who,value,note"), std::string::npos);
  EXPECT_NE(csv.find("1000,release,x,42,note"), std::string::npos);
}

TEST(Timeline, CsvQuotesAwkwardFields) {
  Timeline t;
  t.record(at(1), TraceKind::kRelease, "x", 1, "plain");
  t.record(at(2), TraceKind::kFire, "a,b", 2, "comma, note");
  t.record(at(3), TraceKind::kComplete, "x", 3, "say \"hi\"");
  t.record(at(4), TraceKind::kCapacity, "x", 4, "two\nlines");
  const std::string csv = t.to_csv();
  // Plain fields stay unquoted (historical format), awkward ones are
  // RFC-4180 quoted with '"' doubled.
  EXPECT_NE(csv.find("1000,release,x,1,plain"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"two\nlines\""), std::string::npos) << csv;
}

TEST(Gantt, RendersBusyCellsAndReleases) {
  Timeline t;
  t.record(at(0), TraceKind::kRelease, "a");
  t.record(at(1), TraceKind::kResume, "a");
  t.record(at(3), TraceKind::kPreempt, "a");
  GanttOptions opt;
  opt.cell = Duration::time_units(1);
  opt.end = at(6);
  const std::string chart = render_gantt(t, {"a"}, opt);
  // Row: release mark at cell 0, busy cells 1-2.
  EXPECT_NE(chart.find("a     ^##..."), std::string::npos) << chart;
}

TEST(Gantt, IntervalTouchingCellBoundaryDoesNotBleed) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "a");
  t.record(at(2), TraceKind::kPreempt, "a");
  GanttOptions opt;
  opt.cell = Duration::time_units(1);
  opt.end = at(4);
  opt.show_releases = false;
  const std::string chart = render_gantt(t, {"a"}, opt);
  EXPECT_NE(chart.find("a     ##.."), std::string::npos) << chart;
}

TEST(Gantt, ReleaseDuringBusyCellMarkedAtSign) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "a");
  t.record(at(4), TraceKind::kPreempt, "a");
  t.record(at(2), TraceKind::kRelease, "a");
  GanttOptions opt;
  opt.cell = Duration::time_units(1);
  opt.end = at(4);
  const std::string chart = render_gantt(t, {"a"}, opt);
  EXPECT_NE(chart.find("##@#"), std::string::npos) << chart;
}

TEST(TraceKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(TraceKind::kRelease), "release");
  EXPECT_STREQ(to_string(TraceKind::kAbort), "abort");
  EXPECT_STREQ(to_string(TraceKind::kReplenish), "replenish");
}

}  // namespace
}  // namespace tsf::common
