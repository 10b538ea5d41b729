// perfbench — times the tsf runtime on one seeded workload, checks every
// output, and prints one JSON result line.
//
//   perfbench --workload uni_stream|storm_quad|paper_grid --seed N
//             --seconds S --trace 0|1 --work-dir DIR --pins FILE
//             [--print-pins]
//
// --trace 0 repeats the workload's closed batch until S seconds have gone
// (at least three times) and reports the end-to-end metrics: times from
// the fastest batch, peak RSS from the first, ratios as medians. --trace 1
// alternates traced and untraced batches, records spans around each public
// call, and reports the per-layer metrics (medians), the tracing
// overhead and the share of wall time the named spans cover; it writes the
// spans and the program's tsf-metrics/1 registry to
// DIR/trace-<workload>-<seed>.json. The last stdout line is always
// {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::Values;

constexpr int kMinIterations = 3;
constexpr double kMinCoverage = 0.9;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"sim_s", "s"},
    {"exec_s", "s"},           {"threads_s", "s"},
    {"peak_rss_mb", "MB"},     {"served_ratio", "1"},
    {"response_p99_tu", "tu"}, {"value_ratio", "1"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_out";
  std::string pins;
  bool print_pins = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      args->work_dir = argv[++i];
    } else if (a == "--pins" && has_value) {
      args->pins = argv[++i];
    } else if (a == "--print-pins") {
      args->print_pins = true;
    } else {
      std::cerr << "unknown argument '" << a << "'\n";
      return false;
    }
  }
  return !args->workload.empty() && !args->pins.empty();
}

// Restricts the process to the first `want` CPUs it may run on, before any
// thread exists, so every thread the program spawns inherits the set.
std::string pin_cpus(int want) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "unpinned";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  int n = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && n < want; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    list += (n++ == 0 ? "" : ",") + std::to_string(cpu);
  }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0) return "unpinned";
  return list;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::vector<double> values_of(const std::vector<Values>& samples,
                              const std::string& key) {
  std::vector<double> v;
  for (const auto& s : samples) {
    const auto it = s.find(key);
    if (it != s.end()) v.push_back(it->second);
  }
  return v;
}

double median_of(const std::vector<Values>& samples, const std::string& key) {
  return median(values_of(samples, key));
}

// How a run folds its batches into one end-to-end value. Times take the
// fastest batch: on a shared host, co-tenants only ever add time, and a
// pinned busy loop here varies by 2x between samples, so the minimum is the
// steady estimate of what the code costs. Peak RSS is the first batch's,
// what a one-shot run of the program peaks at (later batches reuse and
// fragment the heap). Outcome ratios repeat exactly; they take the median.
double fold(const std::vector<Values>& samples, const std::string& key,
            const std::string& unit) {
  const auto v = values_of(samples, key);
  if (v.empty()) return 0.0;
  if (unit == "s") return *std::min_element(v.begin(), v.end());
  if (key == "peak_rss_mb") return v.front();
  return median(v);
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics(std::ostream& out,
                   const std::vector<std::pair<std::string, std::string>>& defs,
                   const Values& values) {
  out << '{';
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].first);
    out << (i == 0 ? "" : ", ") << '"' << defs[i].first << "\": {\"value\": "
        << number(it == values.end() ? 0.0 : it->second) << ", \"unit\": \""
        << defs[i].second << "\"}";
  }
  out << '}';
}

void print_table(const std::vector<std::pair<std::string, std::string>>& defs,
                 const Values& values) {
  for (const auto& [name, unit] : defs) {
    const auto it = values.find(name);
    std::printf("  %-34s %16.6f %s\n", name.c_str(),
                it == values.end() ? 0.0 : it->second, unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload uni_stream|storm_quad|paper_grid"
                 " --seed N --seconds S --trace 0|1 --work-dir DIR"
                 " --pins FILE [--print-pins]\n";
    return 2;
  }
  const std::string cpus = pin_cpus(args.workload == "storm_quad" ? 4 : 1);
  auto workload = perfbench::make_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  perfbench::Pins pins;
  std::string error;
  if (!pins.load(args.pins, &error)) {
    std::cerr << "error: " << error << '\n';
    return 2;
  }
  perfbench::Checker checker(pins, args.workload, args.seed);
  std::filesystem::create_directories(args.work_dir);
  try {
    workload->prepare(args.seed, args.work_dir, checker);
  } catch (const std::exception& e) {
    std::cerr << "error: preparing inputs: " << e.what() << '\n';
    return 1;
  }

  perfbench::Tracer tracer;
  std::vector<Values> e2e_samples;
  std::vector<Values> layer_samples;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::vector<int> roots;
  const perfbench::Stopwatch total;
  auto untraced = [&] {
    const perfbench::Stopwatch watch;
    Values e2e;
    Values unused;
    workload->iterate(nullptr, checker, &e2e, &unused);
    untraced_wall.push_back(watch.seconds());
    e2e_samples.push_back(std::move(e2e));
  };
  if (!args.trace) {
    while (static_cast<int>(untraced_wall.size()) < kMinIterations ||
           total.seconds() < args.seconds) {
      untraced();
    }
  } else {
    workload->mark_rss_baseline();
    while (traced_wall.size() < 2 || total.seconds() < args.seconds) {
      roots.push_back(static_cast<int>(tracer.spans().size()));
      Values e2e;
      Values layer;
      workload->iterate(&tracer, checker, &e2e, &layer);
      const auto& root = tracer.spans()[static_cast<std::size_t>(roots.back())];
      traced_wall.push_back(root.end_s - root.start_s -
                            workload->take_extra_seconds());
      layer_samples.push_back(std::move(layer));
      untraced();
    }
  }

  Values e2e;
  for (const auto& [name, unit] : kEndToEnd) {
    e2e[name] = fold(e2e_samples, name, unit);
  }
  std::printf("perfbench %s seed %llu on cpu %s: %zu untraced + %zu traced "
              "iterations in %.2f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              cpus.c_str(), untraced_wall.size(), traced_wall.size(),
              total.seconds());
  std::printf("end to end (%zu batches, tracing off; times are the fastest "
              "batch, peak RSS the first):\n",
              e2e_samples.size());
  print_table(kEndToEnd, e2e);
  std::printf("per iteration:\n");
  for (const auto& [name, unit] : kEndToEnd) {
    std::printf("  %-16s", name.c_str());
    for (const auto& sample : e2e_samples) {
      const auto it = sample.find(name);
      std::printf(" %.4g", it == sample.end() ? 0.0 : it->second);
    }
    std::printf("\n");
  }

  Values layer;
  if (args.trace) {
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      layer[name] = median_of(layer_samples, name);
    }
    double wall = 0.0;
    double covered = 0.0;
    for (const int id : roots) {
      const auto& root = tracer.spans()[static_cast<std::size_t>(id)];
      wall += root.end_s - root.start_s;
      covered += root.end_s - root.start_s - tracer.self_seconds(id);
    }
    const double coverage = wall > 0.0 ? covered / wall : 0.0;
    const double overhead = median(traced_wall) - median(untraced_wall);
    layer["bench.trace_overhead_s"] = overhead;
    layer["bench.span_coverage"] = coverage;

    std::printf("per-layer self time over %zu traced iterations (%.3f s):\n",
                roots.size(), wall);
    std::printf("  %-34s %6s %12s %12s %7s\n", "span", "count", "total_s",
                "self_s", "self%");
    for (const auto& [name, row] : tracer.rows()) {
      std::printf("  %-34s %6zu %12.6f %12.6f %6.2f%%\n", name.c_str(),
                  row.count, row.total_s, row.self_s,
                  wall > 0.0 ? 100.0 * row.self_s / wall : 0.0);
    }
    std::printf("registry (tsf-metrics/1, last traced iteration):\n%s\n",
                workload->registry_json().c_str());
    std::printf("tracing overhead: traced %.6f s - untraced %.6f s = %.6f s "
                "(%.2f%%); named spans cover %.2f%% of traced wall time\n",
                median(traced_wall), median(untraced_wall), overhead,
                median(untraced_wall) > 0.0
                    ? 100.0 * overhead / median(untraced_wall)
                    : 0.0,
                100.0 * coverage);
    std::printf("per-layer metrics (medians of %zu traced iterations):\n",
                layer_samples.size());
    print_table(perfbench::layer_metrics(), layer);
    if (coverage < kMinCoverage) {
      checker.fail_run("named spans cover " + number(coverage) +
                       " of traced wall time, below " + number(kMinCoverage));
    }

    const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    out << "{\"schema\": \"perfbench-trace/1\", \"workload\": \""
        << args.workload << "\", \"seed\": " << args.seed
        << ", \"coverage\": " << number(coverage)
        << ", \"trace_overhead_s\": " << number(overhead)
        << ",\n\"per_layer\": ";
    write_metrics(out, perfbench::layer_metrics(), layer);
    out << ",\n\"registry\": " << workload->registry_json()
        << ",\n\"spans\": ";
    tracer.write_json(out);
    out << "}\n";
    std::printf("trace written to %s\n", path.c_str());
  }

  for (const auto& f : checker.failures()) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }
  if (args.print_pins) checker.write_pins(std::cout);
  std::cout << "{\"correct\": " << (checker.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checker.attempted()
            << ", \"failed\": " << checker.failed() << ", \"metrics\": ";
  if (args.trace) {
    write_metrics(std::cout, perfbench::layer_metrics(), layer);
  } else {
    write_metrics(std::cout, kEndToEnd, e2e);
  }
  std::cout << "}" << std::endl;
  return 0;
}
