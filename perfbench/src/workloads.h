// The three benchmark workloads and the checks on their outputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

// Pinned outputs per (workload, seed, key), from pins.txt:
//   <workload> <seed> <key> <value>
class Pins {
 public:
  bool load(const std::string& path, std::string* error);
  const std::string* find(const std::string& workload, std::uint64_t seed,
                          const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

// Counts operations (engine runs) and their failed checks. Each output is
// compared with its pin when the seed has one, and always with the value
// the first iteration of this run produced.
class Checker {
 public:
  Checker(const Pins& pins, std::string workload, std::uint64_t seed)
      : pins_(pins), workload_(std::move(workload)), seed_(seed) {}

  void begin_op(const std::string& name);
  void end_op();
  // Fails the current operation unless `ok`.
  void expect(bool ok, const std::string& what);
  void output(const std::string& key, const std::string& value);
  // An extra failure outside any engine run (e.g. span coverage).
  void fail_run(const std::string& what);

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  // The outputs of the first iteration, in pins.txt format.
  void write_pins(std::ostream& out) const;

 private:
  const Pins& pins_;
  std::string workload_;
  std::uint64_t seed_;
  std::string op_;
  bool op_failed_ = false;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> first_;
  std::vector<std::string> first_order_;
};

// One iteration's metric values by name.
using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  // Makes the seeded inputs (not timed; files go under `work_dir`).
  virtual void prepare(std::uint64_t seed, const std::string& work_dir,
                       Checker& checker) = 0;
  // One closed batch over the inputs. `tracer` is null on untraced
  // iterations. Fills the end-to-end values, and on traced iterations the
  // per-layer values too.
  virtual void iterate(Tracer* tracer, Checker& checker, Values* e2e,
                       Values* layer) = 0;
  // Seconds the last traced iteration spent in "bench.extra" spans:
  // traced-only measurements, left out of the tracing overhead.
  virtual double take_extra_seconds() { return 0.0; }
  // Called before the first traced iteration: the ru_maxrss baseline that
  // common.rss_bytes_per_record is measured from.
  virtual void mark_rss_baseline() {}
  // The program's tsf-metrics/1 registry from the last traced iteration.
  virtual std::string registry_json() const { return "{}"; }
};

// "uni_stream" | "storm_quad" | "paper_grid"; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
