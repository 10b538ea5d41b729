// tsf-trace/1 round trips: records and interned entities, and rejection of
// malformed or hostile streams with an error naming the offending record.
#include "common/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/trace.h"

namespace tsf::common {
namespace {

TimePoint at(std::int64_t tu) {
  return TimePoint::origin() + Duration::time_units(tu);
}

Timeline sample_timeline() {
  Timeline t;
  t.record(at(0), TraceKind::kRelease, "a");
  t.record(at(0), TraceKind::kStart, "a");
  t.record(at(2), TraceKind::kComplete, "a", 5, "note with spaces");
  t.record(at(2), TraceKind::kRelease, "b");
  t.record(at(9), TraceKind::kComplete, "b", -3, "");
  return t;
}

TEST(TraceIo, WriteReadRoundTripsFingerprint) {
  const Timeline t = sample_timeline();
  std::ostringstream out;
  write_trace(out, t);
  std::istringstream in(out.str());
  Timeline back;
  std::string error;
  ASSERT_TRUE(read_trace(in, &back, &error)) << error;
  EXPECT_EQ(fingerprint(back), fingerprint(t));
  EXPECT_EQ(back.records().size(), t.records().size());
  EXPECT_EQ(back.records()[2].note, "note with spaces");
}

TEST(TraceIo, StreamingWriterMatchesConvenienceWriter) {
  const Timeline t = sample_timeline();
  std::ostringstream a, b;
  write_trace(a, t);
  BinaryTraceWriter writer(b);
  for (const auto& r : t.records()) {
    writer.record(r.at, r.kind, r.who, r.value, r.note);
  }
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(writer.records_written(), t.records().size());
  EXPECT_EQ(writer.bytes_written(), b.str().size());
}

// The retired retract tombstone (0x03) is no longer part of the format.
TEST(TraceIo, RejectsRetiredRetractOpcode) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  writer.record(at(0), TraceKind::kResume, "task");
  // A 0x03 entry as the old writer laid it out: delta 0, entity 0, kind.
  std::string bytes = out.str();
  bytes += '\x03';
  bytes += '\x00';
  bytes += '\x00';
  bytes += static_cast<char>(TraceKind::kPreempt);
  std::istringstream in(bytes);
  Timeline back;
  std::string error;
  EXPECT_FALSE(read_trace(in, &back, &error));
  EXPECT_EQ(error, "unknown opcode 3");
}

// Replays `bytes`, expecting a rejection before any bad record reaches the
// sink; returns the error.
std::string rejection(const std::string& bytes, std::size_t records_kept) {
  std::istringstream in(bytes);
  Timeline back;
  std::string error;
  EXPECT_FALSE(read_trace(in, &back, &error));
  EXPECT_EQ(back.records().size(), records_kept);
  return error;
}

TEST(TraceIo, RejectsRecordBeforeThePreviousOne) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  writer.record(TimePoint::at_ticks(0), TraceKind::kRelease, "a");
  writer.record(TimePoint::at_ticks(-5), TraceKind::kRelease, "a");
  EXPECT_EQ(rejection(out.str(), 1),
            "record 2 (release 'a'): its tick falls below the previous "
            "record's 0");
}

TEST(TraceIo, RejectsTicksReachingInfinity) {
  const std::int64_t end = Duration::infinite().count();
  for (const std::int64_t last : {std::int64_t{0}, end - 1}) {
    std::ostringstream out;
    BinaryTraceWriter writer(out);
    writer.record(TimePoint::at_ticks(last), TraceKind::kRelease, "a");
    writer.record(TimePoint::at_ticks(end), TraceKind::kRelease, "a");
    EXPECT_EQ(rejection(out.str(), 1),
              "record 2 (release 'a'): its tick reaches 2^60 "
              "(Duration::infinite())");
  }
  // The two largest zigzag deltas decode to INT64_MIN and INT64_MAX:
  // neither may reach an overflowing sum.
  for (const std::uint64_t zigzag : {~std::uint64_t{0}, ~std::uint64_t{1}}) {
    std::ostringstream out;
    BinaryTraceWriter writer(out);
    writer.record(TimePoint::at_ticks(1), TraceKind::kRelease, "a");
    std::string bytes = out.str();
    bytes += '\x02';  // record, delta as a 10-byte varint
    for (std::uint64_t v = zigzag; v != 0; v >>= 7) {
      bytes += static_cast<char>((v & 0x7f) | (v >> 7 != 0 ? 0x80 : 0));
    }
    bytes += '\x00';  // entity 0
    bytes += static_cast<char>(TraceKind::kRelease);
    bytes += std::string(9, '\x00');  // value 0, empty note
    EXPECT_FALSE(rejection(bytes, 1).empty());
  }
}

TEST(TraceIo, RejectsResumeOfAnOpenInterval) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  writer.record(at(0), TraceKind::kResume, "a");
  writer.record(at(1), TraceKind::kPreempt, "a");
  writer.record(at(1), TraceKind::kStart, "a");
  writer.record(at(2), TraceKind::kStart, "b");
  writer.record(at(3), TraceKind::kResume, "a");
  EXPECT_EQ(rejection(out.str(), 4),
            "record 5 (resume 'a'): its busy interval is already open at "
            "tick 3000");
}

TEST(TraceIo, EmptyStreamIsValid) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);  // writes the magic only
  std::istringstream in(out.str());
  Timeline back;
  std::string error;
  EXPECT_TRUE(read_trace(in, &back, &error)) << error;
  EXPECT_TRUE(back.records().empty());
}

TEST(TraceIo, RejectsBadMagic) {
  std::istringstream in("nottrc1\n");
  Timeline t;
  std::string error;
  EXPECT_FALSE(read_trace(in, &t, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceIo, RejectsTruncatedEntry) {
  const Timeline t = sample_timeline();
  std::ostringstream out;
  write_trace(out, t);
  const std::string whole = out.str();
  std::istringstream in(whole.substr(0, whole.size() - 1));
  Timeline back;
  std::string error;
  EXPECT_FALSE(read_trace(in, &back, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tsf::common
