// The one tsf-bench/1 writer: every bench's --json output (the document
// bench_gate compares against bench/baselines/*.json) goes through here.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"

namespace tsf::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  bool higher_is_better = true;
};

// Writes the tsf-bench/1 document for `bench`; returns the exit code (1,
// with a message on stderr, when `path` cannot be written).
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

}  // namespace tsf::bench
