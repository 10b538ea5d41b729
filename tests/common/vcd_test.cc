// The VCD writer: declarations, edges, and their order within an instant.
// tests/mp/vcd_reference_test.cc compares it byte for byte against the
// sort-based builder it replaced.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/trace_stream.h"

namespace tsf::common {
namespace {

TimePoint at(std::int64_t ticks) { return TimePoint::at_ticks(ticks); }

std::string replay(StreamingVcd& vcd, const Timeline& t) {
  for (const auto& r : t.records()) {
    vcd.record(r.at, r.kind, r.who, r.value, r.note);
  }
  std::ostringstream out;
  vcd.finish(out);
  return out.str();
}

// The dump of `t` with one wire per row.
std::string dump(const Timeline& t, const std::vector<std::string>& rows) {
  StreamingVcd vcd(rows);
  return replay(vcd, t);
}

// The dump of `t` with one wire per entity, in order of first appearance.
std::string dump(const Timeline& t) {
  StreamingVcd vcd;
  return replay(vcd, t);
}

TEST(Vcd, HeaderDeclaresOneWirePerRow) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "server");
  t.record(at(5), TraceKind::kPreempt, "server");
  const std::string vcd = dump(t, {"server", "tau1"});
  EXPECT_NE(vcd.find("$timescale 1us $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! server $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 \" tau1 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
}

TEST(Vcd, TransitionsMatchBusyIntervals) {
  Timeline t;
  t.record(at(100), TraceKind::kResume, "a");
  t.record(at(300), TraceKind::kPreempt, "a");
  const std::string vcd = dump(t, {"a"});
  // Initial zero, rising edge at 100, falling at 300.
  EXPECT_NE(vcd.find("#0\n0!"), std::string::npos);
  EXPECT_NE(vcd.find("#100\n1!"), std::string::npos);
  EXPECT_NE(vcd.find("#300\n0!"), std::string::npos);
}

TEST(Vcd, BackToBackHandoffOrdersFallBeforeRise) {
  // b takes over from a at the same instant: the falling edge of a must be
  // emitted before the rising edge of b under the same timestamp.
  Timeline t;
  t.record(at(0), TraceKind::kResume, "a");
  t.record(at(50), TraceKind::kPreempt, "a");
  t.record(at(50), TraceKind::kResume, "b");
  t.record(at(90), TraceKind::kPreempt, "b");
  const std::string vcd = dump(t, {"a", "b"});
  const auto ts = vcd.find("#50");
  ASSERT_NE(ts, std::string::npos);
  const auto fall = vcd.find("0!", ts);
  const auto rise = vcd.find("1\"", ts);
  ASSERT_NE(fall, std::string::npos);
  ASSERT_NE(rise, std::string::npos);
  EXPECT_LT(fall, rise);
}

TEST(Vcd, ManyEntitiesGetMultiCharIdentifiers) {
  // Identifiers are bijective base-94: the 95th entity widens to two
  // characters instead of walking off the printable range.
  Timeline t;
  std::vector<std::string> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back("e" + std::to_string(i));
    t.record(at(i), TraceKind::kResume, rows.back());
  }
  for (int i = 0; i < 100; ++i) {
    t.record(at(i + 200), TraceKind::kPreempt, rows[i]);
  }
  const std::string vcd = dump(t, rows);
  EXPECT_NE(vcd.find("$var wire 1 ! e0 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ~ e93 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 !! e94 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 !\" e95 $end"), std::string::npos);
}

TEST(Vcd, SpacesInNamesSanitised) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "my task");
  t.record(at(1), TraceKind::kPreempt, "my task");
  const std::string vcd = dump(t, {"my task"});
  EXPECT_NE(vcd.find("my_task"), std::string::npos);
}

// The whole dump, byte for byte: wires in order of first appearance (any
// kind declares), one stamp per instant with edges, a wire's fall before
// its rise, zero-length windows and marks leave nothing.
TEST(Vcd, WholeDumpInFirstAppearanceOrder) {
  Timeline t;
  t.record(at(0), TraceKind::kRelease, "b");
  t.record(at(0), TraceKind::kResume, "a");
  t.record(at(50), TraceKind::kPreempt, "a");
  t.record(at(50), TraceKind::kResume, "b");
  t.record(at(70), TraceKind::kResume, "c");
  t.record(at(70), TraceKind::kPreempt, "c");
  t.record(at(80), TraceKind::kNote, "a");
  t.record(at(90), TraceKind::kPreempt, "b");
  t.record(at(90), TraceKind::kResume, "b");
  t.record(at(120), TraceKind::kComplete, "b");
  EXPECT_EQ(dump(t),
            "$timescale 1us $end\n$scope module tsf $end\n"
            "$var wire 1 ! b $end\n$var wire 1 \" a $end\n"
            "$var wire 1 # c $end\n"
            "$upscope $end\n$enddefinitions $end\n"
            "#0\n0!\n0\"\n0#\n1\"\n"
            "#50\n1!\n0\"\n"
            "#90\n0!\n1!\n"
            "#120\n0!\n");
}

// With a row list, other entities declare no wire and stamp no instant.
TEST(Vcd, RowsIgnoreOtherEntities) {
  Timeline t;
  t.record(at(10), TraceKind::kResume, "other");
  t.record(at(20), TraceKind::kPreempt, "other");
  t.record(at(20), TraceKind::kResume, "a");
  t.record(at(30), TraceKind::kComplete, "a");
  EXPECT_EQ(dump(t, {"a", "never"}),
            "$timescale 1us $end\n$scope module tsf $end\n"
            "$var wire 1 ! a $end\n$var wire 1 \" never $end\n"
            "$upscope $end\n$enddefinitions $end\n"
            "#0\n0!\n0\"\n"
            "#20\n1!\n"
            "#30\n0!\n");
}

TEST(Vcd, EmptyStreamDeclaresTheRowsOnly) {
  EXPECT_EQ(dump(Timeline{}, {"a"}),
            "$timescale 1us $end\n$scope module tsf $end\n"
            "$var wire 1 ! a $end\n"
            "$upscope $end\n$enddefinitions $end\n#0\n0!\n");
}

TEST(VcdDeathTest, RepeatedRowIsRejected) {
  EXPECT_DEATH(StreamingVcd({"a", "b", "a"}), "listed twice");
}

}  // namespace
}  // namespace tsf::common
