// In-memory spans the traced run records around each public call into the
// program, from the benchmark's side of the call.
//
// A span has a name, a start, an end, a parent and the id of the engine
// run it belongs to. Spans stay in memory until the run ends and are then
// written as JSON. A span's self time is its duration minus its children's;
// children are sequential and nested, so their durations simply add up.
// Splits the program measures itself (the grid's gen/run split, the epoch
// step time) are recorded as derived child spans laid end to end from the
// parent's start, flagged so the JSON does not pass them off as timed
// intervals.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // since the tracer was made
    double end_s = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
    int run = 0;      // the engine run the span belongs to; 0 = none
    bool derived = false;
  };

  Tracer();

  double now() const;
  int open(std::string name);
  void close(int id);
  // A child of the innermost open span covering [start, start + seconds].
  void derived(std::string name, double start_s, double seconds);

  // Spans opened after begin_run() carry a fresh run id until end_run().
  void begin_run() { run_ = ++runs_; }
  void end_run() { run_ = 0; }

  const std::vector<Span>& spans() const { return spans_; }
  double self_seconds(int id) const;

  struct Row {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  // Per span name, in name order.
  std::map<std::string, Row> rows() const;

  void write_json(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<double> child_s_;  // per span: summed child durations
  std::vector<int> stack_;
  int run_ = 0;
  int runs_ = 0;
};

// Steady-clock stopwatch for the end-to-end timings.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// RAII span that also times itself; a null tracer records nothing, which
// is the untraced path.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Ends the span (the first call only) and returns its seconds.
  double close() {
    if (!closed_) {
      seconds_ = watch_.seconds();
      closed_ = true;
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    return seconds_;
  }

 private:
  Tracer* tracer_;
  int id_;
  Stopwatch watch_;
  double seconds_ = 0.0;
  bool closed_ = false;
};

}  // namespace perfbench
