// Throughput and memory ceiling of the streaming trace pipeline.
//
// Synthesizes a horizon-scale record stream (release/start/complete per
// job) and pushes it through the production sink stack — binary tsf-trace/1
// writer, streaming fingerprint, streaming metrics — without ever
// materializing a Timeline. At the default 10^6 jobs that is 3×10^6
// records; CI runs 10^7 jobs under a hard address-space ulimit to prove the
// pipeline stays O(entities) where the materialized path would need
// gigabytes.
//
// Before the timed pass, a 50k-job prefix is run through both the streaming
// and the materialized paths and must agree: streaming fingerprint ==
// fingerprint(Timeline), and a binary write/read round trip must reproduce
// the materialized fingerprint exactly.
//
//   bench_trace_stream [--count N] [--entities M] [--out FILE]
//                      [--rss-limit-mb N] [--json FILE]
//
// --count and --entities take digits only, at least 1; --rss-limit-mb a
// finite number >= 0 (0: no limit). Anything else exits 2.
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/trace.h"
#include "common/trace_io.h"
#include "common/trace_sink.h"
#include "common/trace_stream.h"
#include "exp/bench_cli.h"

namespace {

using namespace tsf;

// Swallows writes so the default run measures the pipeline, not the disk.
class NullBuf : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// Deterministic synthetic workload: one processor, `entities` servers used
// round-robin, each job released and started at the same instant and
// completed 1..7 ticks later.
void generate(common::TraceSink* sink, std::uint64_t jobs,
              std::uint64_t entities,
              const std::vector<std::string>& names) {
  std::int64_t t = 0;
  for (std::uint64_t j = 0; j < jobs; ++j) {
    const std::string& who = names[j % entities];
    const std::int64_t cost = 1 + static_cast<std::int64_t>(j % 7);
    const auto release = common::TimePoint::at_ticks(t);
    const auto done = common::TimePoint::at_ticks(t + cost);
    sink->record(release, common::TraceKind::kRelease, who,
                 static_cast<std::int64_t>(j));
    sink->record(release, common::TraceKind::kStart, who);
    sink->record(done, common::TraceKind::kComplete, who);
    t += cost + 1;
  }
}

// Digits only, into uint64, at least 1: from_chars takes no sign or space,
// and "3x" stops short of the end. Anything else exits 2 naming the flag.
std::uint64_t positive_count(const char* flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value < 1) {
    std::cerr << flag << " needs a positive count, got '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

double max_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t count = 1'000'000;
  std::uint64_t entities = 64;
  std::string out_path;
  double rss_limit_mb = 0.0;
  tsf::exp::BenchCli cli(tsf::exp::BenchCli::kJson);
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--count") == 0) {
      count = positive_count("--count", next("--count"));
    } else if (std::strcmp(argv[i], "--entities") == 0) {
      entities = positive_count("--entities", next("--entities"));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--rss-limit-mb") == 0) {
      const std::string_view text = next("--rss-limit-mb");
      const auto [end, ec] = std::from_chars(
          text.data(), text.data() + text.size(), rss_limit_mb);
      // `!(x >= 0)` also rejects NaN.
      if (ec != std::errc{} || end != text.data() + text.size() ||
          !std::isfinite(rss_limit_mb) || !(rss_limit_mb >= 0.0)) {
        std::cerr << "--rss-limit-mb needs a finite number >= 0, got '"
                  << text << "'\n";
        return 2;
      }
    } else if (!cli.consume(argc, argv, &i)) {
      return cli.fail("bench_trace_stream",
                      " [--count N] [--entities M] [--out FILE]"
                      " [--rss-limit-mb N]");
    }
  }
  const std::string& json_path = cli.json_path;

  std::vector<std::string> names;
  names.reserve(entities);
  for (std::uint64_t e = 0; e < entities; ++e) {
    names.push_back("srv" + std::to_string(e));
  }

  // Correctness prefix: streaming vs materialized, plus a binary round trip.
  const std::uint64_t prefix_jobs = std::min<std::uint64_t>(count, 50'000);
  common::Timeline materialized;
  common::StreamingFingerprint prefix_digest;
  std::ostringstream prefix_bytes;
  {
    common::BinaryTraceWriter writer(prefix_bytes);
    common::TeeSink tee;
    tee.add(&materialized);
    tee.add(&prefix_digest);
    tee.add(&writer);
    generate(&tee, prefix_jobs, entities, names);
  }
  const std::uint64_t want = common::fingerprint(materialized);
  const bool fingerprint_ok = prefix_digest.digest() == want;
  bool roundtrip_ok = false;
  {
    common::Timeline replayed;
    std::istringstream in(prefix_bytes.str());
    std::string error;
    roundtrip_ok = common::read_trace(in, &replayed, &error) &&
                   common::fingerprint(replayed) == want;
    if (!roundtrip_ok && !error.empty()) {
      std::cerr << "round trip failed: " << error << '\n';
    }
  }
  if (!fingerprint_ok || !roundtrip_ok) {
    std::cerr << "self-check failed: fingerprint_ok=" << fingerprint_ok
              << " roundtrip_ok=" << roundtrip_ok << '\n';
  }

  // Timed pass through the full sink stack.
  NullBuf null_buf;
  std::ofstream out_file;
  std::ostream* out = nullptr;
  if (out_path.empty()) {
    out = new std::ostream(&null_buf);
  } else {
    out_file.open(out_path, std::ios::binary);
    if (!out_file) {
      std::cerr << "error: cannot write '" << out_path << "'\n";
      return 2;
    }
    out = &out_file;
  }
  common::BinaryTraceWriter writer(*out);
  common::StreamingFingerprint digest;
  common::StreamingTraceMetrics metrics;
  common::TeeSink tee;
  tee.add(&writer);
  tee.add(&digest);
  tee.add(&metrics);

  const auto begin = std::chrono::steady_clock::now();
  generate(&tee, count, entities, names);
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - begin)
          .count();
  if (out != &out_file) delete out;

  const double records = static_cast<double>(metrics.records());
  const double events_per_sec = seconds > 0.0 ? records / seconds : 0.0;
  const double bytes_per_record =
      records > 0.0 ? static_cast<double>(writer.bytes_written()) / records
                    : 0.0;
  const double rss_mb = max_rss_mb();

  std::printf("jobs            %llu\n", static_cast<unsigned long long>(count));
  std::printf("records         %.0f\n", records);
  std::printf("bytes/record    %.3f\n", bytes_per_record);
  std::printf("events/sec      %.3g\n", events_per_sec);
  std::printf("max rss         %.1f MB\n", rss_mb);
  std::printf("fingerprint     %016llx\n",
              static_cast<unsigned long long>(digest.digest()));
  std::printf("self-check      fingerprint=%s roundtrip=%s\n",
              fingerprint_ok ? "ok" : "FAIL", roundtrip_ok ? "ok" : "FAIL");

  if (!json_path.empty()) {
    common::JsonWriter json;
    json.begin_object();
    json.key("schema").value("tsf-bench/1");
    json.key("bench").value("trace_stream");
    json.key("metrics").begin_array();
    auto metric = [&json](const std::string& name, double value,
                          bool higher_is_better) {
      json.begin_object();
      json.key("name").value(name);
      json.key("value").value(value);
      json.key("higher_is_better").value(higher_is_better);
      json.end_object();
    };
    metric("records", records, true);
    metric("bytes_per_record", bytes_per_record, false);
    metric("fingerprint_ok", fingerprint_ok ? 1.0 : 0.0, true);
    metric("roundtrip_ok", roundtrip_ok ? 1.0 : 0.0, true);
    metric("events_per_sec", events_per_sec, true);
    json.end_array();
    json.end_object();
    std::ofstream json_out(json_path, std::ios::binary);
    json_out << json.take();
  }

  if (!fingerprint_ok || !roundtrip_ok) return 1;
  if (rss_limit_mb > 0.0 && rss_mb > rss_limit_mb) {
    std::cerr << "max rss " << rss_mb << " MB exceeds limit " << rss_limit_mb
              << " MB\n";
    return 1;
  }
  return 0;
}
