// tsf_trace — inspector for tsf-trace/1 binary trace streams.
//
// Usage:
//   tsf_trace dump <trace> [--vcd]   print CSV (default; materializes the
//                                    trace) or a value-change dump (streamed;
//                                    holds the dump, not the trace)
//   tsf_trace summarize <trace>      one streaming pass: record/kind counts,
//                                    busy time, response quantiles and the
//                                    trace fingerprint — O(entities) memory
//                                    regardless of trace length
//   tsf_trace diff <a> <b>           first diverging record of two traces;
//                                    exit 1 when they differ
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/trace.h"
#include "common/trace_io.h"
#include "common/trace_sink.h"
#include "common/trace_stream.h"

namespace {

using namespace tsf;

int usage() {
  std::cerr << "usage: tsf_trace dump <trace> [--vcd]\n"
               "       tsf_trace summarize <trace>\n"
               "       tsf_trace diff <a> <b>\n";
  return 2;
}

bool replay_file(const std::string& path, common::TraceSink* sink) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot read '" << path << "'\n";
    return false;
  }
  std::string error;
  if (!common::read_trace(in, sink, &error)) {
    std::cerr << "error: " << path << ": " << error << '\n';
    return false;
  }
  return true;
}

std::string render_record(const common::TraceRecord& r) {
  std::string out = std::to_string(r.at.ticks());
  out += ' ';
  out += common::to_string(r.kind);
  out += ' ';
  out += r.who;
  out += " value=" + std::to_string(r.value);
  if (!r.note.empty()) out += " note=" + r.note;
  return out;
}

int cmd_dump(const std::string& path, bool vcd) {
  if (vcd) {
    common::StreamingVcd writer;
    if (!replay_file(path, &writer)) return 2;
    writer.finish(std::cout);
    return 0;
  }
  common::Timeline timeline;
  if (!replay_file(path, &timeline)) return 2;
  std::cout << timeline.to_csv();
  return 0;
}

int cmd_summarize(const std::string& path) {
  common::StreamingFingerprint fingerprint;
  common::StreamingTraceMetrics metrics;
  common::TeeSink tee;
  tee.add(&fingerprint);
  tee.add(&metrics);
  if (!replay_file(path, &tee)) return 2;

  std::printf("records      %llu\n",
              static_cast<unsigned long long>(metrics.records()));
  std::printf("entities     %zu\n", metrics.entity_count());
  std::printf("span ticks   [%lld, %lld]\n",
              static_cast<long long>(metrics.first_ticks()),
              static_cast<long long>(metrics.last_ticks()));
  std::printf("busy ticks   %lld\n",
              static_cast<long long>(metrics.busy_ticks()));
  std::printf("kinds       ");
  for (std::size_t k = 0; k < common::kTraceKindCount; ++k) {
    const auto count = metrics.kind_count(static_cast<common::TraceKind>(k));
    if (count == 0) continue;
    std::printf(" %s=%llu", common::to_string(static_cast<common::TraceKind>(k)),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
  const auto& responses = metrics.response_stats();
  if (!responses.empty()) {
    const auto& sketch = metrics.response_sketch();
    std::printf("responses    n=%zu mean=%.4f tu  p50=%.4f p95=%.4f p99=%.4f"
                " (±%.0f%%)\n",
                responses.count(), responses.mean(), sketch.p50(),
                sketch.p95(), sketch.p99(),
                sketch.relative_accuracy() * 100.0);
  }
  std::printf("fingerprint  %016llx\n",
              static_cast<unsigned long long>(fingerprint.digest()));
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  common::Timeline a, b;
  if (!replay_file(path_a, &a) || !replay_file(path_b, &b)) return 2;

  const auto& ra = a.records();
  const auto& rb = b.records();
  const std::size_t n = std::min(ra.size(), rb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& x = ra[i];
    const auto& y = rb[i];
    if (x.at == y.at && x.kind == y.kind && x.who == y.who &&
        x.value == y.value && x.note == y.note) {
      continue;
    }
    std::printf("record %zu differs:\n  a: %s\n  b: %s\n", i,
                render_record(x).c_str(), render_record(y).c_str());
    return 1;
  }
  if (ra.size() != rb.size()) {
    const bool a_longer = ra.size() > rb.size();
    std::printf("%s has %zu extra record(s) starting at %zu:\n  %s\n",
                a_longer ? "a" : "b",
                (a_longer ? ra.size() : rb.size()) - n, n,
                render_record(a_longer ? ra[n] : rb[n]).c_str());
    return 1;
  }
  std::printf("traces identical: %zu records, fingerprint %016llx\n",
              ra.size(),
              static_cast<unsigned long long>(common::fingerprint(a)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  if (command == "dump") {
    bool vcd = false;
    std::string path;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--vcd") == 0) {
        vcd = true;
      } else if (path.empty()) {
        path = argv[i];
      } else {
        return usage();
      }
    }
    if (path.empty()) return usage();
    return cmd_dump(path, vcd);
  }
  if (command == "summarize") {
    if (argc != 3) return usage();
    return cmd_summarize(argv[2]);
  }
  if (command == "diff") {
    if (argc != 4) return usage();
    return cmd_diff(argv[2], argv[3]);
  }
  return usage();
}
