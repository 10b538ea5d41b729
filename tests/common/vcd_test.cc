// VCD export of execution timelines.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/trace_stream.h"

namespace tsf::common {
namespace {

TimePoint at(std::int64_t ticks) { return TimePoint::at_ticks(ticks); }

TEST(Vcd, HeaderDeclaresOneWirePerEntity) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "server");
  t.record(at(5), TraceKind::kPreempt, "server");
  const std::string vcd = to_vcd(t, {"server", "tau1"});
  EXPECT_NE(vcd.find("$timescale 1us $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! server $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 \" tau1 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
}

TEST(Vcd, TransitionsMatchBusyIntervals) {
  Timeline t;
  t.record(at(100), TraceKind::kResume, "a");
  t.record(at(300), TraceKind::kPreempt, "a");
  const std::string vcd = to_vcd(t, {"a"});
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
  const std::string vcd = to_vcd(t, {"a", "b"});
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
    const std::string name = "e" + std::to_string(i);
    t.record(at(i), TraceKind::kResume, name);
    t.record(at(i + 200), TraceKind::kPreempt, name);
    rows.push_back(name);
  }
  const std::string vcd = to_vcd(t, rows);
  EXPECT_NE(vcd.find("$var wire 1 ! e0 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ~ e93 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 !! e94 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 !\" e95 $end"), std::string::npos);
}

TEST(StreamingVcd, ByteIdenticalToMaterializedExport) {
  Timeline t;
  // Handoffs at the same instant, a zero-length window, idle gaps, and
  // non-interval marks interleaved — everything the edge logic must handle.
  t.record(at(0), TraceKind::kRelease, "a");
  t.record(at(0), TraceKind::kResume, "a");
  t.record(at(50), TraceKind::kPreempt, "a");
  t.record(at(50), TraceKind::kResume, "b");
  t.record(at(70), TraceKind::kResume, "c");
  t.record(at(70), TraceKind::kPreempt, "c");  // zero-length: no edges
  t.record(at(90), TraceKind::kComplete, "b");
  t.record(at(120), TraceKind::kResume, "a");
  t.record(at(150), TraceKind::kAbort, "a");

  std::ostringstream body;
  StreamingVcd stream(body);
  for (const auto& r : t.records()) {
    stream.record(r.at, r.kind, r.who, r.value, r.note);
  }
  stream.finish();
  EXPECT_EQ(stream.header() + body.str(), to_vcd(t, t.entities()));
}

TEST(Vcd, SpacesInNamesSanitised) {
  Timeline t;
  t.record(at(0), TraceKind::kResume, "my task");
  t.record(at(1), TraceKind::kPreempt, "my task");
  const std::string vcd = to_vcd(t, {"my task"});
  EXPECT_NE(vcd.find("my_task"), std::string::npos);
}

}  // namespace
}  // namespace tsf::common
