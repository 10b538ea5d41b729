// The micro benches' two entry points: google-benchmark by default, and
// under --json FILE a self-timed pass that writes tsf-bench/1 metrics for
// the bench-regression CI gate (google-benchmark's statistics are too slow
// and too noisy for a gate, so each gated workload is timed by hand).
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "exp/bench_cli.h"

namespace tsf::bench {

// Runs `body` (which processes `items` items per call) repeatedly for at
// least 50 ms and returns items per second.
template <typename Body>
double items_per_sec(std::size_t items, Body body) {
  using clock = std::chrono::steady_clock;
  const auto begin = clock::now();
  std::uint64_t done = 0;
  do {
    body();
    done += items;
  } while (clock::now() - begin < std::chrono::milliseconds(50));
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(clock::now() -
                                                                begin)
          .count();
  return seconds > 0.0 ? static_cast<double>(done) / seconds : 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  bool higher_is_better = true;
};

// Writes the tsf-bench/1 document for `bench`; returns the exit code.
inline int write_json(const std::string& path, const std::string& bench,
                      const std::vector<Metric>& metrics) {
  common::JsonWriter json;
  json.begin_object();
  json.key("schema").value("tsf-bench/1");
  json.key("bench").value(bench);
  json.key("metrics").begin_array();
  for (const Metric& m : metrics) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("value").value(m.value);
    json.key("higher_is_better").value(m.higher_is_better);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "error: cannot write '" << path << "'\n";
    return 1;
  }
  out << json.take();
  return 0;
}

// The whole main(): --json takes the self-timed `run_json(path)`; anything
// else falls through to google-benchmark untouched (its own flags keep
// working).
template <typename RunJson>
int run_main(int argc, char** argv, const char* prog, RunJson run_json) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      exp::BenchCli cli(exp::BenchCli::kJson);
      for (int j = 1; j < argc; ++j) {
        if (!cli.consume(argc, argv, &j)) return cli.fail(prog);
      }
      return run_json(cli.json_path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace tsf::bench
