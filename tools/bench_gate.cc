// bench_gate — CI gate comparing a bench's --json output against the
// committed baseline under bench/baselines/.
//
// Usage:
//   bench_gate --baseline bench/baselines/cross_core.json
//              --current out/cross_core.json [--tolerance 0.05]
//
// Both files use the "tsf-bench/1" schema: {"schema", "bench", "metrics":
// [{"name", "value", "higher_is_better"}]}. Every baseline metric must be
// present in the current run and within the relative tolerance in its good
// direction (latencies may not rise more than |baseline|*tol above the
// baseline, throughput may not fall more than |baseline|*tol below it —
// magnitude-relative, so negative baselines keep a sane band). A zero
// baseline gets the tolerance as an absolute bound, in both directions
// (common/gate_check.h holds the testable rule). Extra current metrics are
// reported but don't fail.
//
// All tracked metrics are virtual-time quantities of deterministic runs, so
// in a healthy tree current == baseline exactly; the tolerance only keeps
// the gate from tripping on an intentional small change while CHANGES are
// in flight. To update after an intentional change:
//   ./build/bench_cross_core --json bench/baselines/cross_core.json
//   ./build/bench_mp_scaling --json bench/baselines/mp_scaling.json
// and commit the diff with a sentence on why the numbers moved.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common/gate_check.h"
#include "common/json_reader.h"

namespace {

struct Metric {
  double value = 0.0;
  bool higher_is_better = false;
};

bool load_metrics(const std::string& path, std::string* bench_name,
                  std::map<std::string, Metric>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot read '" << path << "'\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  tsf::common::JsonValue doc;
  std::string error;
  if (!tsf::common::json_parse(buffer.str(), &doc, &error)) {
    std::cerr << "error: " << path << ": " << error << '\n';
    return false;
  }
  const auto* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "tsf-bench/1") {
    std::cerr << "error: " << path << ": not a tsf-bench/1 document\n";
    return false;
  }
  if (const auto* bench = doc.find("bench")) *bench_name = bench->as_string();
  const auto* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    std::cerr << "error: " << path << ": missing metrics array\n";
    return false;
  }
  for (const auto& entry : metrics->as_array()) {
    const auto* name = entry.find("name");
    const auto* value = entry.find("value");
    if (name == nullptr || value == nullptr || !value->is_number()) {
      std::cerr << "error: " << path << ": malformed metric entry\n";
      return false;
    }
    Metric m;
    m.value = value->as_number();
    if (const auto* hib = entry.find("higher_is_better")) {
      m.higher_is_better = hib->as_bool();
    }
    (*out)[name->as_string()] = m;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path;
  double tolerance = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--current") == 0 && i + 1 < argc) {
      current_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      char* end = nullptr;
      tolerance = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "bad --tolerance value '" << argv[i] << "'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_gate --baseline FILE --current FILE"
                   " [--tolerance 0.05]\n";
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty() || tolerance < 0.0 ||
      !std::isfinite(tolerance)) {
    std::cerr << "usage: bench_gate --baseline FILE --current FILE"
                 " [--tolerance 0.05]\n";
    return 2;
  }

  std::string baseline_bench, current_bench;
  std::map<std::string, Metric> baseline, current;
  if (!load_metrics(baseline_path, &baseline_bench, &baseline) ||
      !load_metrics(current_path, &current_bench, &current)) {
    return 2;
  }
  if (!baseline_bench.empty() && baseline_bench != current_bench) {
    std::cerr << "error: bench mismatch: baseline is '" << baseline_bench
              << "', current is '" << current_bench << "'\n";
    return 2;
  }

  int regressions = 0;
  for (const auto& [name, base] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("MISSING  %-48s baseline %.6g\n", name.c_str(), base.value);
      ++regressions;
      continue;
    }
    const double cur = it->second.value;
    const auto verdict = tsf::common::gate_check(base.value, cur, tolerance,
                                                 base.higher_is_better);
    std::printf("%-8s %-48s baseline %-12.6g current %-12.6g limit %.6g\n",
                verdict.regressed ? "REGRESS" : "ok", name.c_str(), base.value,
                cur, verdict.limit);
    if (verdict.regressed) ++regressions;
  }
  for (const auto& [name, m] : current) {
    if (baseline.count(name) == 0) {
      std::printf("new      %-48s current %.6g (untracked; update the"
                  " baseline to start gating it)\n",
                  name.c_str(), m.value);
    }
  }

  if (regressions > 0) {
    std::printf(
        "\n%d tracked metric(s) regressed beyond %.0f%% of baseline.\n"
        "If the change is intentional, regenerate the baseline:\n"
        "  ./build/bench_%s --json %s\n"
        "and commit it with a note on why the numbers moved.\n",
        regressions, tolerance * 100.0, current_bench.c_str(),
        baseline_path.c_str());
    return 1;
  }
  std::printf("\nall %zu tracked metrics within %.0f%% of baseline\n",
              baseline.size(), tolerance * 100.0);
  return 0;
}
