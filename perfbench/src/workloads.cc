#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "analysis/offline_value.h"
#include "cli/spec_file.h"
#include "common/json_reader.h"
#include "common/metrics_registry.h"
#include "common/sketch.h"
#include "common/trace.h"
#include "common/trace_io.h"
#include "common/trace_stream.h"
#include "exp/exec_runner.h"
#include "exp/metrics.h"
#include "exp/shard.h"
#include "inputs.h"
#include "mp/mp_system.h"
#include "mp/overload.h"
#include "rtsj/vm/vm.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

namespace cli = tsf::cli;
namespace common = tsf::common;
namespace exp = tsf::exp;
namespace mp = tsf::mp;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double maxrss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

struct Usage {
  double sys_s = 0.0;
  double voluntary = 0.0;
  double involuntary = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6,
          static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_nivcsw)};
}

template <typename F>
auto timed(Tracer* tracer, const char* name, double* seconds, F&& f) {
  SpanScope span(tracer, name);
  auto result = f();
  *seconds = span.close();
  return result;
}

// Phases this short (set-up, simulation) run kShortRepeats times in every
// batch, so a run has several samples of them; the fastest is kept.
constexpr int kShortRepeats = 5;

// Runs `f` `repeats` times and returns the fastest of the seconds it
// reports. `f` frees what the previous repeat left before starting its
// clock, so no sample pays for destroying another's result.
template <typename F>
double fastest_of(int repeats, F&& f) {
  double best = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const double seconds = f();
    best = i == 0 ? seconds : std::min(best, seconds);
  }
  return best;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Sum of a registry histogram's samples (count x mean in tsf-metrics/1).
double histogram_sum(const common::MetricsRegistry& registry,
                     const std::string& name) {
  common::JsonValue doc;
  std::string error;
  if (!common::json_parse(registry.to_json(), &doc, &error)) return 0.0;
  const auto* histograms = doc.find("histograms");
  if (histograms == nullptr) return 0.0;
  for (const auto& h : histograms->as_array()) {
    const auto* n = h.find("name");
    if (n != nullptr && n->as_string() == name) {
      return h.find("count")->as_number() * h.find("mean")->as_number();
    }
  }
  return 0.0;
}

// An ostream that discards what it is given: times trace encoding alone.
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

bool same_outcomes(const model::RunResult& a, const model::RunResult& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.name != y.name || x.release != y.release || x.served != y.served ||
        x.shed != y.shed || x.interrupted != y.interrupted ||
        x.completion != y.completion) {
      return false;
    }
  }
  return true;
}

std::size_t count_shed(const model::RunResult& r) {
  return static_cast<std::size_t>(std::count_if(
      r.jobs.begin(), r.jobs.end(), [](const auto& j) { return j.shed; }));
}

// The `core` layer's counts, read off a returned RunResult.
void core_counts(const model::RunResult& r, const exp::RunMetrics& m,
                 Values* layer) {
  (*layer)["core.dispatches"] = static_cast<double>(r.server_dispatches);
  (*layer)["core.activations"] = static_cast<double>(r.server_activations);
  (*layer)["core.served_per_dispatch"] =
      r.server_dispatches > 0 ? static_cast<double>(m.served) /
                                    static_cast<double>(r.server_dispatches)
                              : 0.0;
  (*layer)["core.interrupted"] = static_cast<double>(m.interrupted);
  (*layer)["core.shed"] = static_cast<double>(count_shed(r));
}

// The calls exp::run_exec is made of, each in its own span, with the VM's
// switch count and the process's kernel time and context switches around
// run_until. Sums into `split` so a cell of many systems adds up.
struct WorldSplit {
  double build_s = 0.0;
  double start_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
  double teardown_s = 0.0;
  double timers = 0.0;
  double switches = 0.0;
  Usage usage;

  void fill(Values* layer) const {
    (*layer)["exp.build_s"] = build_s;
    (*layer)["exp.start_s"] = start_s;
    (*layer)["exp.start_ns_per_timer"] =
        timers > 0.0 ? start_s / timers * 1e9 : 0.0;
    (*layer)["exp.collect_s"] = collect_s;
    (*layer)["exp.teardown_s"] = teardown_s;
    (*layer)["rtsj.vm.run_s"] = run_s;
    (*layer)["rtsj.vm.switches"] = switches;
    (*layer)["rtsj.vm.ns_per_switch"] =
        switches > 0.0 ? run_s / switches * 1e9 : 0.0;
    (*layer)["rtsj.vm.sys_s"] = usage.sys_s;
    (*layer)["rtsj.vm.vol_csw"] = usage.voluntary;
    (*layer)["rtsj.vm.invol_csw"] = usage.involuntary;
  }
};

model::RunResult run_exec_traced(Tracer* tracer, const model::SystemSpec& spec,
                                 const exp::ExecOptions& options,
                                 WorldSplit* split) {
  tracer->begin_run();
  std::unique_ptr<tsf::rtsj::vm::VirtualMachine> vm;
  std::unique_ptr<exp::ExecSystem> system;
  {
    SpanScope span(tracer, "exp.build");
    vm = std::make_unique<tsf::rtsj::vm::VirtualMachine>(options.kernel);
    system = std::make_unique<exp::ExecSystem>(*vm, spec, options);
    split->build_s += span.close();
  }
  {
    SpanScope span(tracer, "exp.start");
    system->start();
    split->start_s += span.close();
  }
  const Usage before = usage_now();
  {
    SpanScope span(tracer, "rtsj.vm.run_until");
    vm->run_until(spec.horizon);
    split->run_s += span.close();
  }
  const Usage after = usage_now();
  split->usage.sys_s += after.sys_s - before.sys_s;
  split->usage.voluntary += after.voluntary - before.voluntary;
  split->usage.involuntary += after.involuntary - before.involuntary;
  split->switches += static_cast<double>(vm->context_switches());
  for (const auto& job : spec.aperiodic_jobs) split->timers += !job.triggered;
  model::RunResult result;
  {
    SpanScope span(tracer, "exp.collect");
    result = system->collect();
    split->collect_s += span.close();
  }
  {
    SpanScope span(tracer, "exp.teardown");
    system.reset();
    vm.reset();
    split->teardown_s += span.close();
  }
  tracer->end_run();
  return result;
}

// The mp layer's registry counters and epoch timings for one mp::run.
// `fold_s` is the registry's own utilization fold (time_registry_fold),
// which the mp::run span contains only because a registry is attached.
void mp_counts(const common::MetricsRegistry& registry, double run_s,
               double merge_s, double fold_s, bool threads, Values* layer) {
  const double step_s = histogram_sum(registry, "mp.epoch.host_seconds");
  (*layer)["mp.epochs"] = static_cast<double>(registry.counter("mp.epochs"));
  (*layer)["mp.step_s"] = step_s;
  (*layer)["mp.boundary_s"] = run_s - step_s - merge_s - fold_s;
  (*layer)["mp.fabric.deliveries"] =
      static_cast<double>(registry.counter("mp.fabric.deliveries"));
  (*layer)["mp.policy.steals"] =
      static_cast<double>(registry.counter("mp.policy.steals"));
  (*layer)["mp.rebalance.migrations"] =
      static_cast<double>(registry.counter("mp.rebalance.migrations"));
  (*layer)["mp.overload.sheds"] =
      static_cast<double>(registry.counter("mp.overload.sheds"));
  if (threads) {
    const double wall = registry.gauge("threads.wall_seconds");
    (*layer)["mp.threads.wall_s"] = wall;
    (*layer)["mp.threads.pinned"] = registry.gauge("threads.workers_pinned");
    (*layer)["mp.threads.outside_s"] = run_s - wall - fold_s;
  }
}

// mp::merge_results again on a run's own per-core results, timed alone.
double time_merge(Tracer* tracer, const model::SystemSpec& spec,
                  const mp::MpRunResult& run, Values* layer) {
  SpanScope span(tracer, "mp.merge_results");
  const auto merged = mp::merge_results(spec, run.partition, run.per_core);
  const double seconds = span.close();
  (*layer)["mp.merge_s"] = seconds;
  (*layer)["mp.merge_ns_per_record"] =
      merged.timeline.records().empty()
          ? 0.0
          : seconds / static_cast<double>(merged.timeline.records().size()) *
                1e9;
  return seconds;
}

void time_trace_write(Tracer* tracer, const common::Timeline& timeline,
                      Values* layer) {
  NullBuffer sink;
  std::ostream out(&sink);
  SpanScope span(tracer, "common.write_trace");
  common::write_trace(out, timeline);
  const double seconds = span.close();
  (*layer)["common.trace_write_ns_per_record"] =
      timeline.records().empty()
          ? 0.0
          : seconds / static_cast<double>(timeline.records().size()) * 1e9;
}

// The trace.* registry tsf_run --metrics-json writes for a one-core run:
// the timeline replayed through the streaming trace summary.
std::string trace_summary(Tracer* tracer, const common::Timeline& timeline) {
  SpanScope span(tracer, "common.trace_summary");
  common::StreamingTraceMetrics summary;
  for (const auto& r : timeline.records()) {
    summary.record(r.at, r.kind, r.who, r.value, r.note);
  }
  summary.finish();
  common::MetricsRegistry registry;
  registry.add_counter("trace.records", summary.records());
  registry.add_counter("trace.entities", summary.entity_count());
  for (std::size_t k = 0; k < common::kTraceKindCount; ++k) {
    const auto kind = static_cast<common::TraceKind>(k);
    if (summary.kind_count(kind) > 0) {
      registry.add_counter(std::string("trace.kind.") + common::to_string(kind),
                           summary.kind_count(kind));
    }
  }
  registry.set_gauge("trace.response.p99_tu", summary.response_sketch().p99());
  return registry.to_json();
}

// What mp::run does after the last epoch when a registry is attached: one
// busy-interval scan per entity of each core's timeline, for the
// mp.core.<k>.utilization gauges. Timed here through the same public calls
// so the boundary share of the mp::run span can leave it out.
double time_registry_fold(Tracer* tracer, const mp::MpRunResult& run) {
  SpanScope span(tracer, "mp.registry_fold");
  for (const auto& core : run.per_core) {
    for (const auto& who : core.timeline.entities()) {
      core.timeline.busy_intervals(who);
    }
  }
  return span.close();
}

// Loads a generated spec file through the front end once, before timing,
// and checks it equals the generated spec field for field.
void check_round_trip(const std::string& name, const FileInput& input,
                      const std::string& path, Checker& checker) {
  checker.begin_op(name + ".load");
  const auto parsed = cli::load_spec_file(path);
  for (const auto& e : parsed.errors) checker.expect(false, "parse: " + e);
  if (parsed.ok()) {
    for (const auto& d : spec_differences(input.spec, parsed.config.spec)) {
      checker.expect(false, "loaded spec differs from generated: " + d);
    }
  }
  checker.end_op();
}

// Set-up shared by the file-fed workloads: cli::load_spec_file +
// mp::analyze. Returns false (and fails an operation) if the file does not
// parse.
bool load_and_analyze(Tracer* tracer, const std::string& path,
                      Checker& checker, cli::ParseOutcome* parsed,
                      mp::MpFeasibility* verdict, Values* e2e, Values* layer) {
  double load_s = 0.0;
  double analyze_s = 0.0;
  bool ok = true;
  (*e2e)["setup_s"] = fastest_of(kShortRepeats, [&] {
    *parsed = cli::ParseOutcome{};
    *verdict = mp::MpFeasibility{};
    const Stopwatch watch;
    *parsed = timed(tracer, "cli.load_spec_file", &load_s,
                    [&] { return cli::load_spec_file(path); });
    ok = ok && parsed->ok();
    if (ok) {
      *verdict = timed(tracer, "mp.analyze", &analyze_s, [&] {
        return mp::analyze(parsed->config.spec, parsed->config.partition);
      });
    }
    return watch.seconds();
  });
  if (!ok) {
    checker.begin_op("setup");
    checker.expect(false, "spec file does not parse: " + parsed->errors[0]);
    checker.end_op();
    return false;
  }
  if (tracer != nullptr) {
    const auto& spec = parsed->config.spec;
    (*layer)["cli.load_spec_s"] = load_s;
    (*layer)["cli.entries_per_s"] =
        static_cast<double>(spec.aperiodic_jobs.size() +
                            spec.periodic_tasks.size() + 2) /
        load_s;
    (*layer)["mp.analyze_s"] = analyze_s;
  }
  return true;
}

// ------------------------------------------------------------ uni_stream

class UniStream final : public Workload {
 public:
  void prepare(std::uint64_t seed, const std::string& work_dir,
               Checker& checker) override {
    input_ = make_uni_stream(seed);
    path_ = work_dir + "/uni_stream-" + std::to_string(seed) + ".tsf";
    write_file(path_, input_.text);
    check_round_trip("uni_stream", input_, path_, checker);
  }

  void iterate(Tracer* tracer, Checker& checker, Values* e2e,
               Values* layer) override {
    const bool traced = tracer != nullptr;
    SpanScope root(tracer, "uni_stream.iteration");
    cli::ParseOutcome parsed;
    mp::MpFeasibility verdict;
    if (!load_and_analyze(tracer, path_, checker, &parsed, &verdict, e2e,
                          layer)) {
      return;
    }
    const auto& config = parsed.config;
    const auto& spec = config.spec;

    checker.begin_op("uni_stream.sim");
    try {
      model::RunResult sim;
      exp::RunMetrics metrics;
      double run_s = 0.0;
      (*e2e)["sim_s"] = fastest_of(kShortRepeats, [&] {
        sim = model::RunResult{};
        const Stopwatch watch;
        double metrics_s = 0.0;
        sim = timed(tracer, "sim.simulate", &run_s,
                    [&] { return tsf::sim::simulate(spec); });
        metrics = timed(tracer, "exp.compute_run_metrics", &metrics_s,
                        [&] { return exp::compute_run_metrics(sim); });
        return watch.seconds();
      });
      SpanScope check(tracer, "bench.check");
      checker.output("sim.fingerprint",
                     hex(common::fingerprint(sim.timeline)));
      checker.output("sim.served", std::to_string(metrics.served));
      if (traced) {
        const double records =
            static_cast<double>(sim.timeline.records().size());
        (*layer)["sim.run_s"] = run_s;
        (*layer)["sim.records"] = records;
        (*layer)["sim.records_per_s"] = records / run_s;
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();

    std::uint64_t exec_fingerprint = 0;
    std::size_t exec_served = 0;
    double exec_records = 0.0;
    checker.begin_op("uni_stream.exec");
    try {
      const Stopwatch watch;
      WorldSplit split;
      const auto result =
          traced ? run_exec_traced(tracer, spec, config.exec_options, &split)
                 : exp::run_exec(spec, config.exec_options);
      double fingerprint_s = 0.0;
      double metrics_s = 0.0;
      exec_fingerprint =
          timed(tracer, "common.fingerprint", &fingerprint_s,
                [&] { return common::fingerprint(result.timeline); });
      const auto metrics =
          timed(tracer, "exp.compute_run_metrics", &metrics_s,
                [&] { return exp::compute_run_metrics(result); });
      (*e2e)["exec_s"] = watch.seconds();
      exec_served = metrics.served;
      (*e2e)["served_ratio"] = metrics.served_ratio;
      (*e2e)["response_p99_tu"] = metrics.p99_response_tu;
      double value_s = 0.0;
      const auto accrual =
          timed(tracer, "analysis.compute_value_accrual", &value_s, [&] {
            return tsf::analysis::compute_value_accrual(spec, result, 1);
          });
      (*e2e)["value_ratio"] = accrual.ratio;
      {
        SpanScope check(tracer, "bench.check");
        checker.output("exec.fingerprint", hex(exec_fingerprint));
        checker.output("exec.served", std::to_string(metrics.served));
        checker.output("exec.released", std::to_string(metrics.released));
        checker.expect(metrics.released == spec.aperiodic_jobs.size(),
                       "exec released " + std::to_string(metrics.released) +
                           " of " +
                           std::to_string(spec.aperiodic_jobs.size()) +
                           " jobs");
      }
      if (traced) {
        split.fill(layer);
        core_counts(result, metrics, layer);
        const double records =
            static_cast<double>(result.timeline.records().size());
        (*layer)["common.trace.records"] = records;
        (*layer)["common.fingerprint_ns_per_record"] =
            fingerprint_s / records * 1e9;
        (*layer)["exp.metrics_s"] = metrics_s;
        (*layer)["analysis.value_accrual_s"] = value_s;
        exec_records = records;
        SpanScope extra(tracer, "bench.extra");
        time_trace_write(tracer, result.timeline, layer);
        registry_ = trace_summary(tracer, result.timeline);
        extra_s_ += extra.close();
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();

    // peak_rss_mb is the sim + exec run's, read before the threads run,
    // which holds a per-core and a merged copy of the timeline.
    const double exec_peak = maxrss_bytes();
    (*e2e)["peak_rss_mb"] = exec_peak / (1024.0 * 1024.0);
    if (traced && rss_per_record_ < 0.0 && exec_records > 0.0) {
      rss_per_record_ = (exec_peak - rss_start_) / exec_records;
    }
    if (traced) (*layer)["common.rss_bytes_per_record"] = rss_per_record_;

    // threads_s: the same one-core exec work on the threads backend (one
    // pinned worker driving the VM between epoch barriers). No registry is
    // attached: tsf_run does not run one-core specs on this backend, and
    // mp::run's utilization fold scans each core's timeline once per
    // entity, which is quadratic on this spec.
    checker.begin_op("uni_stream.threads");
    try {
      mp::MpRunOptions options;
      options.strategy = config.partition;
      options.backend = mp::ExecBackend::kThreads;
      options.exec = config.exec_options;
      options.quantum = config.quantum;
      const Stopwatch watch;
      double run_s = 0.0;
      double unused_s = 0.0;
      const auto run = timed(tracer, "mp.run", &run_s, [&] {
        return mp::run(spec, verdict.partition, options);
      });
      const auto fingerprint =
          timed(tracer, "common.fingerprint", &unused_s,
                [&] { return common::fingerprint(run.merged.timeline); });
      const auto metrics =
          timed(tracer, "exp.compute_run_metrics", &unused_s,
                [&] { return exp::compute_run_metrics(run.merged); });
      (*e2e)["threads_s"] = watch.seconds();
      {
        SpanScope check(tracer, "bench.check");
        checker.output("threads.fingerprint", hex(fingerprint));
        checker.expect(
            run.per_core.size() == 1 &&
                common::fingerprint(run.per_core[0].timeline) ==
                    exec_fingerprint,
            "threads core trace differs from the exec oracle");
        checker.expect(metrics.served == exec_served,
                       "threads served " + std::to_string(metrics.served) +
                           ", exec served " + std::to_string(exec_served));
      }
      if (traced) {
        SpanScope extra(tracer, "bench.extra");
        time_merge(tracer, spec, run, layer);
        extra_s_ += extra.close();
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();
  }

  double take_extra_seconds() override {
    const double s = extra_s_;
    extra_s_ = 0.0;
    return s;
  }
  void mark_rss_baseline() override { rss_start_ = maxrss_bytes(); }
  std::string registry_json() const override { return registry_; }

 private:
  FileInput input_;
  std::string path_;
  std::string registry_ = "{}";
  double extra_s_ = 0.0;
  double rss_start_ = 0.0;
  double rss_per_record_ = -1.0;
};

// ------------------------------------------------------------ storm_quad

class StormQuad final : public Workload {
 public:
  void prepare(std::uint64_t seed, const std::string& work_dir,
               Checker& checker) override {
    input_ = make_storm_quad(seed);
    path_ = work_dir + "/storm_quad-" + std::to_string(seed) + ".tsf";
    write_file(path_, input_.text);
    check_round_trip("storm_quad", input_, path_, checker);
  }

  void iterate(Tracer* tracer, Checker& checker, Values* e2e,
               Values* layer) override {
    const bool traced = tracer != nullptr;
    SpanScope root(tracer, "storm_quad.iteration");
    cli::ParseOutcome parsed;
    mp::MpFeasibility verdict;
    if (!load_and_analyze(tracer, path_, checker, &parsed, &verdict, e2e,
                          layer)) {
      return;
    }
    const auto& config = parsed.config;
    const auto& spec = config.spec;
    mp::MpRunOptions options;
    options.strategy = config.partition;
    options.policy = config.policy;
    options.exec = config.exec_options;
    options.quantum = config.quantum;
    options.rebalance = config.rebalance;

    // sim_s: the partitioned simulator on the same spec (static partition,
    // no fabric, no overload policy — what tsf_run's sim engine runs).
    checker.begin_op("storm_quad.sim");
    try {
      mp::MpRunOptions sim_options = options;
      sim_options.engine = mp::RunEngine::kSim;
      mp::MpRunResult run;
      exp::RunMetrics metrics;
      double run_s = 0.0;
      (*e2e)["sim_s"] = fastest_of(kShortRepeats, [&] {
        run = mp::MpRunResult{};
        const Stopwatch watch;
        double unused_s = 0.0;
        run = timed(tracer, "sim.mp_run", &run_s, [&] {
          return mp::run(spec, verdict.partition, sim_options);
        });
        metrics = timed(tracer, "exp.compute_run_metrics", &unused_s,
                        [&] { return exp::compute_run_metrics(run.merged); });
        return watch.seconds();
      });
      SpanScope check(tracer, "bench.check");
      checker.output("sim.fingerprint",
                     hex(common::fingerprint(run.merged.timeline)));
      checker.output("sim.served", std::to_string(metrics.served));
      if (traced) {
        const double records =
            static_cast<double>(run.merged.timeline.records().size());
        (*layer)["sim.run_s"] = run_s;
        (*layer)["sim.records"] = records;
        (*layer)["sim.records_per_s"] = records / run_s;
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();

    Outcome lockstep;
    checker.begin_op("storm_quad.lockstep");
    try {
      lockstep = exec(tracer, spec, verdict, options,
                      mp::ExecBackend::kLockstep, e2e, "exec_s", layer);
      (*e2e)["served_ratio"] = lockstep.metrics.served_ratio;
      (*e2e)["response_p99_tu"] = lockstep.metrics.p99_response_tu;
      (*e2e)["value_ratio"] = lockstep.value_ratio;
      SpanScope check(tracer, "bench.check");
      checker.output("lockstep.fingerprint", hex(lockstep.fingerprint));
      checker.output("lockstep.served", std::to_string(lockstep.metrics.served));
      checker.output("lockstep.released",
                     std::to_string(lockstep.metrics.released));
      checker.output("lockstep.value_ratio", num(lockstep.value_ratio));
      for (const auto& v : lockstep.violations) {
        checker.expect(false, "forbidden behavior: " + v);
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();

    std::string threads_registry = "{}";
    double threads_run_s = 0.0;
    double threads_wall_s = 0.0;
    double threads_pinned = 0.0;
    checker.begin_op("storm_quad.threads");
    try {
      Values unused;
      const auto threads = exec(tracer, spec, verdict, options,
                                mp::ExecBackend::kThreads, e2e, "threads_s",
                                &unused);
      SpanScope check(tracer, "bench.check");
      checker.expect(threads.fingerprint == lockstep.fingerprint,
                     "threads fingerprint " + hex(threads.fingerprint) +
                         " != lock-step " + hex(lockstep.fingerprint));
      checker.expect(same_outcomes(threads.run.merged, lockstep.run.merged),
                     "threads served set differs from lock-step");
      for (const auto& v : threads.violations) {
        checker.expect(false, "forbidden behavior (threads): " + v);
      }
      if (traced) {
        threads_registry = threads.registry.to_json();
        threads_run_s = threads.run_s;
        threads_wall_s = threads.registry.gauge("threads.wall_seconds");
        threads_pinned = threads.registry.gauge("threads.workers_pinned");
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();

    if (traced) {
      // Both backends fold the same per-core timelines, so one replica of
      // the registry fold serves both mp::run spans.
      SpanScope extra(tracer, "bench.extra");
      const double merge_s = time_merge(tracer, spec, lockstep.run, layer);
      const double fold_s = time_registry_fold(tracer, lockstep.run);
      time_trace_write(tracer, lockstep.run.merged.timeline, layer);
      extra_s_ += extra.close();
      mp_counts(lockstep.registry, lockstep.run_s, merge_s, fold_s, false,
                layer);
      (*layer)["mp.registry_fold_s"] = fold_s;
      (*layer)["mp.threads.wall_s"] = threads_wall_s;
      (*layer)["mp.threads.pinned"] = threads_pinned;
      (*layer)["mp.threads.outside_s"] =
          threads_run_s - threads_wall_s - fold_s;
      registry_ = "{\"lockstep\": " + lockstep.registry.to_json() +
                  ",\n\"threads\": " + threads_registry + "}";
      if (rss_per_record_ < 0.0) {
        rss_per_record_ = (maxrss_bytes() - rss_start_) / lockstep.records;
      }
      (*layer)["common.rss_bytes_per_record"] = rss_per_record_;
    }
    (*e2e)["peak_rss_mb"] = maxrss_bytes() / (1024.0 * 1024.0);
  }

  double take_extra_seconds() override {
    const double s = extra_s_;
    extra_s_ = 0.0;
    return s;
  }
  void mark_rss_baseline() override { rss_start_ = maxrss_bytes(); }
  std::string registry_json() const override { return registry_; }

 private:
  struct Outcome {
    mp::MpRunResult run;
    common::MetricsRegistry registry;
    exp::RunMetrics metrics;
    std::uint64_t fingerprint = 0;
    double value_ratio = 0.0;
    double run_s = 0.0;
    double records = 0.0;
    std::vector<std::string> violations;
  };

  // exec_s / threads_s: the engine plus the post-processing tsf_run does on
  // an overload run's result.
  Outcome exec(Tracer* tracer, const model::SystemSpec& spec,
               const mp::MpFeasibility& verdict, mp::MpRunOptions options,
               mp::ExecBackend backend, Values* e2e, const char* metric,
               Values* layer) {
    const bool traced = tracer != nullptr;
    Outcome out;
    options.backend = backend;
    // As in tsf_run: the threads backend always runs with a registry, so
    // threads_s includes mp::run's utilization fold; lock-step gets one
    // only when traced (tsf_run's --metrics-json).
    if (traced || backend == mp::ExecBackend::kThreads) {
      options.metrics = &out.registry;
    }
    std::size_t serving = 0;
    for (const auto& core : verdict.partition.cores) serving += core.has_server;
    const Stopwatch watch;
    double fingerprint_s = 0.0;
    double metrics_s = 0.0;
    double channel_s = 0.0;
    double value_s = 0.0;
    double invariants_s = 0.0;
    out.run = timed(tracer, "mp.run", &out.run_s, [&] {
      return mp::run(spec, verdict.partition, options);
    });
    out.fingerprint =
        timed(tracer, "common.fingerprint", &fingerprint_s,
              [&] { return common::fingerprint(out.run.merged.timeline); });
    out.metrics = timed(tracer, "exp.compute_run_metrics", &metrics_s,
                        [&] { return exp::compute_run_metrics(out.run.merged); });
    timed(tracer, "exp.compute_channel_metrics", &channel_s, [&] {
          return exp::compute_channel_metrics(out.run.channel_deliveries,
                                              out.run.merged);
        });
    out.value_ratio =
        timed(tracer, "analysis.compute_value_accrual", &value_s, [&] {
          return tsf::analysis::compute_value_accrual(spec, out.run.merged,
                                                      serving);
        }).ratio;
    const auto violations =
        timed(tracer, "mp.check_overload_invariants", &invariants_s,
              [&] { return mp::check_overload_invariants(spec, out.run); });
    (*e2e)[metric] = watch.seconds();
    for (const auto& v : violations) out.violations.push_back(v.name + ": " + v.detail);
    out.records = static_cast<double>(out.run.merged.timeline.records().size());
    if (traced) {
      core_counts(out.run.merged, out.metrics, layer);
      (*layer)["common.trace.records"] = out.records;
      (*layer)["common.fingerprint_ns_per_record"] =
          fingerprint_s / out.records * 1e9;
      (*layer)["exp.metrics_s"] = metrics_s + channel_s;
      (*layer)["mp.invariants_s"] = invariants_s;
      (*layer)["analysis.value_accrual_s"] = value_s;
    }
    return out;
  }

  FileInput input_;
  std::string path_;
  std::string registry_ = "{}";
  double extra_s_ = 0.0;
  double rss_start_ = 0.0;
  double rss_per_record_ = -1.0;
};

// ------------------------------------------------------------ paper_grid

class PaperGrid final : public Workload {
 public:
  void prepare(std::uint64_t seed, const std::string& work_dir,
               Checker& checker) override {
    (void)work_dir;
    (void)checker;
    units_ = make_paper_grid(seed);
    sample_ = make_grid_sample(seed);
    sample_options_ = exp::paper_execution_options();
  }

  void iterate(Tracer* tracer, Checker& checker, Values* e2e,
               Values* layer) override {
    const bool traced = tracer != nullptr;
    SpanScope root(tracer, "paper_grid.iteration");
    std::vector<exp::CellResult> cells;
    std::string error;
    if (!traced) {
      exp::ShardOptions serial;
      serial.jobs = 1;
      auto outcome = exp::run_units(units_, serial);
      if (outcome.ok) {
        cells = std::move(outcome.cells);
      } else {
        error = outcome.error;
      }
    } else {
      for (const auto& unit : units_) {
        tracer->begin_run();
        SpanScope span(tracer, "exp.run_cell");
        const double start = tracer->now();
        cells.push_back(exp::run_cell(unit));
        const auto& cell = cells.back();
        tracer->derived("gen.generate", start, cell.gen_seconds);
        tracer->derived(unit.mode == exp::Mode::kSimulation
                            ? "sim.cell_runs"
                            : "exp.cell_runs",
                        start + cell.gen_seconds, cell.run_seconds);
        span.close();
        tracer->end_run();
      }
    }

    double gen_s = 0.0;
    double sim_s = 0.0;
    double exec_s = 0.0;
    double exec_systems = 0.0;
    double served = 0.0;
    double systems = 0.0;
    common::LogSketch pooled;
    {
      SpanScope check(tracer, "bench.check");
      for (std::size_t i = 0; i < units_.size(); ++i) {
        checker.begin_op(units_[i].label);
        if (i >= cells.size()) {
          checker.expect(false, "harness failed: " + error);
          checker.end_op();
          continue;
        }
        const auto& cell = cells[i];
        const auto& m = cell.metrics;
        checker.output(units_[i].label + ".digest", hex(cell.spec_digest));
        checker.output(units_[i].label + ".aart", num(m.aart));
        checker.output(units_[i].label + ".air", num(m.air));
        checker.output(units_[i].label + ".asr", num(m.asr));
        checker.expect(m.systems == kGridSystemsPerCell,
                       "cell ran " + std::to_string(m.systems) + " systems");
        checker.expect(m.asr > 0.0 && m.asr <= 1.0, "ASR out of (0, 1]");
        checker.end_op();
        gen_s += cell.gen_seconds;
        systems += static_cast<double>(m.systems);
        if (units_[i].mode == exp::Mode::kSimulation) {
          sim_s += cell.run_seconds;
        } else {
          exec_s += cell.run_seconds;
          exec_systems += static_cast<double>(m.systems);
          served += m.asr * static_cast<double>(m.systems);
          pooled.merge(m.response_sketch);
        }
      }
    }
    if (cells.size() == units_.size()) {
      if (!traced) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
          keep_min(&best_gen_, i, cells[i].gen_seconds);
          keep_min(&best_run_, i, cells[i].run_seconds);
        }
      }
      double best_gen = 0.0;
      double best_sim = 0.0;
      double best_exec = 0.0;
      for (std::size_t i = 0; i < best_run_.size(); ++i) {
        best_gen += best_gen_[i];
        (units_[i].mode == exp::Mode::kSimulation ? best_sim : best_exec) +=
            best_run_[i];
      }
      (*e2e)["setup_s"] = best_gen;
      (*e2e)["sim_s"] = best_sim;
      (*e2e)["exec_s"] = best_exec;
      (*e2e)["served_ratio"] = served / exec_systems;
      (*e2e)["response_p99_tu"] = pooled.p99();
    }
    if (traced) {
      (*layer)["gen.generate_s"] = gen_s;
      (*layer)["sim.run_s"] = sim_s;
      (*layer)["exp.grid.sim_s"] = sim_s;
      (*layer)["exp.grid.exec_s"] = exec_s;
      (*layer)["exp.grid.systems_per_s"] = systems / (sim_s + exec_s);
    }

    // The sampled exec cell: value accrual (value_ratio), the world
    // lifecycle split when traced, and the same systems on the threads
    // backend (threads_s), each checked against its exec oracle.
    std::vector<std::uint64_t> oracle;
    checker.begin_op("paper_grid.sample.exec");
    try {
      SpanScope span(tracer, "exp.sample_cell");
      WorldSplit split;
      double accrued = 0.0;
      double bound = 0.0;
      double records = 0.0;
      std::uint64_t folded = 0;
      for (const auto& spec : sample_) {
        const auto result =
            traced ? run_exec_traced(tracer, spec, sample_options_, &split)
                   : exp::run_exec(spec, sample_options_);
        double unused_s = 0.0;
        oracle.push_back(timed(tracer, "common.fingerprint", &unused_s, [&] {
          return common::fingerprint(result.timeline);
        }));
        folded = folded * 1099511628211ULL ^ oracle.back();
        const auto accrual =
            timed(tracer, "analysis.compute_value_accrual", &unused_s, [&] {
              return tsf::analysis::compute_value_accrual(spec, result, 1);
            });
        accrued += accrual.accrued;
        bound += accrual.bound;
        records += static_cast<double>(result.timeline.records().size());
      }
      span.close();
      (*e2e)["value_ratio"] = bound > 0.0 ? accrued / bound : 0.0;
      checker.output("sample.fingerprints", hex(folded));
      checker.output("sample.value_ratio", num(accrued / bound));
      if (traced) {
        split.fill(layer);
        (*layer)["common.trace.records"] = records;
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();

    checker.begin_op("paper_grid.sample.threads");
    try {
      mp::MpRunOptions options;
      options.backend = mp::ExecBackend::kThreads;
      options.exec = sample_options_;
      Values mp_sum;
      double chunk_s = 0.0;
      std::size_t mismatches = 0;
      {
        SpanScope span(tracer, "exp.sample_threads");
        for (std::size_t i = 0; i < sample_.size(); ++i) {
          // A registry only when traced: tsf_run does not run one-core
          // specs on this backend, so no user path attaches one.
          common::MetricsRegistry registry;
          if (traced) options.metrics = &registry;
          const Stopwatch watch;
          double one_s = 0.0;
          double unused_s = 0.0;
          const auto run = timed(tracer, "mp.run", &one_s, [&] {
            return mp::run(sample_[i], options);
          });
          timed(tracer, "common.fingerprint", &unused_s, [&] {
            return common::fingerprint(run.merged.timeline);
          });
          timed(tracer, "exp.compute_run_metrics", &unused_s,
                [&] { return exp::compute_run_metrics(run.merged); });
          chunk_s += watch.seconds();
          if (!traced && (i + 1) % kThreadsChunk == 0) {
            keep_min(&best_chunk_, i / kThreadsChunk, chunk_s);
            chunk_s = 0.0;
          }
          SpanScope check(tracer, "bench.check");
          mismatches += i >= oracle.size() ||
                        common::fingerprint(run.per_core.at(0).timeline) !=
                            oracle[i];
          if (traced) {
            // Each system's registry fold is a few hundred records: noise
            // next to the run, so it is not subtracted here.
            Values one;
            mp_counts(registry, one_s, 0.0, 0.0, true, &one);
            for (const auto& [key, value] : one) mp_sum[key] += value;
            registry_ = registry.to_json();
          }
        }
      }
      double best_threads = 0.0;
      for (const double s : best_chunk_) best_threads += s;
      (*e2e)["threads_s"] = best_threads;
      checker.expect(mismatches == 0,
                     std::to_string(mismatches) +
                         " sampled systems differ from their exec oracle on "
                         "the threads backend");
      if (traced) {
        mp_sum["mp.threads.pinned"] /= static_cast<double>(sample_.size());
        for (const auto& [key, value] : mp_sum) (*layer)[key] = value;
      }
    } catch (const std::exception& e) {
      checker.expect(false, std::string("threw: ") + e.what());
    }
    checker.end_op();
    (*e2e)["peak_rss_mb"] = maxrss_bytes() / (1024.0 * 1024.0);
  }

  std::string registry_json() const override { return registry_; }

 private:
  // Systems per timed chunk of the sampled threads runs: about 3.5 ms of
  // work, short enough to fall between the host's slow spells. With
  // 100-system chunks threads_s spread 0.18-0.27 over ten runs (README).
  static constexpr std::size_t kThreadsChunk = 10;

  static void keep_min(std::vector<double>* best, std::size_t i, double v) {
    if (best->size() <= i) best->resize(i + 1, v);
    (*best)[i] = std::min((*best)[i], v);
  }

  std::vector<exp::WorkUnit> units_;
  std::vector<model::SystemSpec> sample_;
  exp::ExecOptions sample_options_;
  std::string registry_ = "{}";
  // Fastest time of each cell (generation, run) and of each threads chunk
  // over the untraced batches so far; the grid's end-to-end times are sums
  // of these. Whole-batch sums spread 0.25-0.41 across ten runs (README),
  // above the bounds: the host slows one CPU for seconds at a time, and
  // the threads backend pins its worker to CPU 0 whatever the process's
  // placement. Cells take tens to hundreds of milliseconds and chunks a
  // few, so each gets several chances at an uncontended slice of the run.
  std::vector<double> best_gen_;
  std::vector<double> best_run_;
  std::vector<double> best_chunk_;
};

}  // namespace

// ---------------------------------------------------------------- Pins

bool Pins::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string seed;
    std::string key;
    std::string value;
    if (!(fields >> workload >> seed >> key >> value)) {
      *error = "malformed pin line: " + line;
      return false;
    }
    values_[workload + ' ' + seed + ' ' + key] = value;
  }
  return true;
}

const std::string* Pins::find(const std::string& workload, std::uint64_t seed,
                              const std::string& key) const {
  const auto it =
      values_.find(workload + ' ' + std::to_string(seed) + ' ' + key);
  return it == values_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------- Checker

void Checker::begin_op(const std::string& name) {
  op_ = name;
  op_failed_ = false;
  ++attempted_;
}

void Checker::end_op() {
  if (op_failed_) ++failed_;
  op_failed_ = false;
}

void Checker::expect(bool ok, const std::string& what) {
  if (ok) return;
  op_failed_ = true;
  if (failures_.size() < 50) failures_.push_back(op_ + ": " + what);
}

void Checker::output(const std::string& key, const std::string& value) {
  if (const auto* pin = pins_.find(workload_, seed_, key)) {
    expect(*pin == value, key + " = " + value + ", pinned " + *pin);
  }
  const auto [it, first] = first_.emplace(key, value);
  if (first) {
    first_order_.push_back(key);
  } else {
    expect(it->second == value,
           key + " = " + value + ", first iteration gave " + it->second);
  }
}

void Checker::fail_run(const std::string& what) {
  ++attempted_;
  ++failed_;
  failures_.push_back(what);
}

void Checker::write_pins(std::ostream& out) const {
  for (const auto& key : first_order_) {
    out << workload_ << ' ' << seed_ << ' ' << key << ' ' << first_.at(key)
        << '\n';
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "uni_stream") return std::make_unique<UniStream>();
  if (name == "storm_quad") return std::make_unique<StormQuad>();
  if (name == "paper_grid") return std::make_unique<PaperGrid>();
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"cli.load_spec_s", "s"},
      {"cli.entries_per_s", "1/s"},
      {"mp.analyze_s", "s"},
      {"gen.generate_s", "s"},
      {"sim.run_s", "s"},
      {"sim.records", "count"},
      {"sim.records_per_s", "1/s"},
      {"exp.build_s", "s"},
      {"exp.start_s", "s"},
      {"exp.start_ns_per_timer", "ns"},
      {"exp.collect_s", "s"},
      {"exp.teardown_s", "s"},
      {"rtsj.vm.run_s", "s"},
      {"rtsj.vm.switches", "count"},
      {"rtsj.vm.ns_per_switch", "ns"},
      {"rtsj.vm.sys_s", "s"},
      {"rtsj.vm.vol_csw", "count"},
      {"rtsj.vm.invol_csw", "count"},
      {"core.dispatches", "count"},
      {"core.activations", "count"},
      {"core.served_per_dispatch", "1"},
      {"core.interrupted", "count"},
      {"core.shed", "count"},
      {"mp.epochs", "count"},
      {"mp.step_s", "s"},
      {"mp.boundary_s", "s"},
      {"mp.fabric.deliveries", "count"},
      {"mp.policy.steals", "count"},
      {"mp.rebalance.migrations", "count"},
      {"mp.overload.sheds", "count"},
      {"mp.merge_s", "s"},
      {"mp.merge_ns_per_record", "ns"},
      {"mp.registry_fold_s", "s"},
      {"mp.threads.wall_s", "s"},
      {"mp.threads.pinned", "count"},
      {"mp.threads.outside_s", "s"},
      {"common.trace.records", "count"},
      {"common.rss_bytes_per_record", "B"},
      {"common.fingerprint_ns_per_record", "ns"},
      {"common.trace_write_ns_per_record", "ns"},
      {"exp.metrics_s", "s"},
      {"mp.invariants_s", "s"},
      {"analysis.value_accrual_s", "s"},
      {"exp.grid.sim_s", "s"},
      {"exp.grid.exec_s", "s"},
      {"exp.grid.systems_per_s", "1/s"},
      {"bench.trace_overhead_s", "s"},
      {"bench.span_coverage", "1"},
  };
  return metrics;
}

}  // namespace perfbench
