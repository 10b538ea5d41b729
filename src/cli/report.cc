#include "cli/report.h"

#include <fstream>
#include <sstream>

#include "analysis/global.h"
#include "analysis/offline_value.h"
#include "common/metrics_registry.h"
#include "common/table.h"
#include "common/trace.h"
#include "common/trace_io.h"
#include "common/trace_stream.h"
#include "exp/metrics.h"
#include "mp/mp_system.h"
#include "mp/overload.h"
#include "sim/simulator.h"

namespace tsf::cli {

namespace {

using common::Duration;

// A single-core run's gantt and VCD rows: the jobs, then the tasks.
std::vector<std::string> spec_rows(const model::SystemSpec& spec) {
  std::vector<std::string> rows;
  for (const auto& job : spec.aperiodic_jobs) rows.push_back(job.name);
  for (const auto& task : spec.periodic_tasks) rows.push_back(task.name);
  return rows;
}

void render_run(std::ostream& os, const CliConfig& config,
                const std::string& label, const model::RunResult& result) {
  os << "--- " << label << " ---\n";
  common::TextTable jobs;
  jobs.add_row({"job", "release", "cost", "outcome", "completion",
                "response"});
  for (const auto& job : result.jobs) {
    jobs.add_row(
        {job.name, common::to_string(job.release),
         common::to_string(job.cost),
         job.served ? "served"
                    : (job.shed ? "shed"
                                : (job.interrupted ? "interrupted"
                                                   : "unserved")),
         job.served ? common::to_string(job.completion) : "-",
         job.served ? common::to_string(job.response()) : "-"});
  }
  os << jobs.to_string();

  const auto metrics = exp::compute_run_metrics(result);
  os << "mean response " << common::fmt_fixed(metrics.mean_response_tu, 2)
     << "tu, served " << metrics.served << "/" << metrics.released
     << ", interrupted " << metrics.interrupted << "\n";

  std::size_t misses = 0;
  for (const auto& p : result.periodic_jobs) misses += p.deadline_missed;
  if (!result.periodic_jobs.empty()) {
    os << "periodic jobs: " << result.periodic_jobs.size()
       << " completions, " << misses << " deadline misses\n";
  }

  if (config.gantt) {
    // Partitioned runs namespace entities per core ("c0/tau1"); take the
    // merged timeline's own rows instead of guessing prefixes.
    const std::vector<std::string> rows = config.spec.cores > 1
                                              ? result.timeline.entities()
                                              : spec_rows(config.spec);
    common::GanttOptions options;
    options.end = config.spec.horizon;
    const auto span = config.spec.horizon - common::TimePoint::origin();
    options.cell = common::max(Duration::ticks(span.count() / 72),
                               Duration::ticks(250));
    os << render_gantt(result.timeline, rows, options);
  }
  os << '\n';
}

// Partition table + per-core feasibility for a multi-core run.
void render_partition(std::ostream& os, const CliConfig& config,
                      const mp::MpFeasibility& verdict) {
  os << "--- partition (" << mp::to_string(config.partition) << ", "
     << config.spec.cores << " cores) ---\n";
  common::TextTable table;
  table.add_row({"core", "tasks", "server", "jobs", "util", "rta"});
  for (std::size_t c = 0; c < verdict.partition.cores.size(); ++c) {
    const auto& core = verdict.partition.cores[c];
    std::string tasks;
    for (std::size_t i : core.tasks) {
      if (!tasks.empty()) tasks += ' ';
      tasks += config.spec.periodic_tasks[i].name;
    }
    table.add_row({"c" + std::to_string(c), tasks.empty() ? "-" : tasks,
                   core.has_server ? "yes" : "-",
                   std::to_string(core.jobs.size()),
                   common::fmt_fixed(core.utilization, 3),
                   verdict.per_core.cores[c].feasible ? "ok" : "INFEASIBLE"});
  }
  os << table.to_string();
  for (const auto& rejection : verdict.partition.rejected) {
    os << "rejected: " << rejection.item.name << " (u="
       << common::fmt_fixed(rejection.item.utilization, 3) << ") — "
       << rejection.reason << '\n';
  }
  os << "system verdict: " << (verdict.feasible ? "feasible" : "INFEASIBLE")
     << '\n';
  if (config.policy != mp::SchedPolicy::kPartitioned) {
    os << "scheduling policy: " << mp::to_string(config.policy) << '\n';
    // The comparison verdict: would the periodic load also be schedulable
    // under global fixed priorities on this many cores?
    const auto global = analysis::analyze_global(
        config.spec.periodic_tasks,
        static_cast<std::size_t>(config.spec.cores), &config.spec.server);
    common::Duration worst = common::Duration::zero();
    for (const auto& r : global.response_times) {
      if (r.has_value()) worst = common::max(worst, *r);
    }
    os << "global RTA (Bertogna-style bound): "
       << (global.feasible ? "feasible" : "INFEASIBLE");
    if (global.feasible && !config.spec.periodic_tasks.empty()) {
      os << ", worst response " << common::to_string(worst);
    }
    os << '\n';
  }
  os << '\n';
}

// Replays the timeline into `vcd` and writes the dump to `path`.
void write_vcd(std::ostream& os, const std::string& path,
               const common::Timeline& timeline, common::StreamingVcd vcd) {
  std::ofstream out(path);
  if (!out) {
    os << "error: cannot write " << path << '\n';
    return;
  }
  for (const auto& r : timeline.records()) vcd.record(r.at, r.kind, r.who);
  vcd.finish(out);
  os << "execution trace written to " << path << " (VCD)\n";
}

void write_trace_file(std::ostream& os, const std::string& path,
                      const common::Timeline& timeline) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    os << "error: cannot write " << path << '\n';
    return;
  }
  common::write_trace(out, timeline);
  os << "execution trace written to " << path << " (tsf-trace/1, "
     << out.tellp() << " bytes)\n";
}

// Replays the materialized timeline through the streaming consumer and
// folds the aggregates into the registry next to whatever counters the
// runtime itself contributed.
void fold_trace_summary(const common::Timeline& timeline,
                        common::MetricsRegistry* metrics) {
  common::StreamingTraceMetrics summary;
  for (const auto& r : timeline.records()) {
    summary.record(r.at, r.kind, r.who, r.value, r.note);
  }
  metrics->add_counter("trace.records", summary.records());
  metrics->add_counter("trace.entities", summary.entity_count());
  for (std::size_t k = 0; k < common::kTraceKindCount; ++k) {
    const auto kind = static_cast<common::TraceKind>(k);
    if (summary.kind_count(kind) > 0) {
      metrics->add_counter(std::string("trace.kind.") + common::to_string(kind),
                           summary.kind_count(kind));
    }
  }
  const double per_tu = common::Duration::kTicksPerTimeUnit;
  metrics->set_gauge("trace.span_tu",
                     static_cast<double>(summary.last_ticks() -
                                         summary.first_ticks()) /
                         per_tu);
  metrics->set_gauge("trace.busy_tu",
                     static_cast<double>(summary.busy_ticks()) / per_tu);
  const auto& stats = summary.response_stats();
  if (!stats.empty()) {
    metrics->add_counter("trace.responses", stats.count());
    metrics->set_gauge("trace.response.mean_tu", stats.mean());
    metrics->set_gauge("trace.response.p50_tu",
                       summary.response_sketch().p50());
    metrics->set_gauge("trace.response.p95_tu",
                       summary.response_sketch().p95());
    metrics->set_gauge("trace.response.p99_tu",
                       summary.response_sketch().p99());
  }
}

void write_metrics_file(std::ostream& os, const std::string& path,
                        const common::MetricsRegistry& metrics) {
  const std::string doc = metrics.to_json();
  if (path == "-") {
    os << doc;
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    os << "error: cannot write " << path << '\n';
    return;
  }
  out << doc;
  os << "metrics written to " << path << " (tsf-metrics/1)\n";
}

}  // namespace

std::string run_and_report(const CliConfig& config) {
  std::ostringstream os;
  os << "system: " << config.spec.periodic_tasks.size() << " periodic task(s), "
     << config.spec.aperiodic_jobs.size() << " aperiodic job(s), "
     << model::to_string(config.spec.server.policy) << " server "
     << common::to_string(config.spec.server.capacity) << "/"
     << common::to_string(config.spec.server.period) << ", horizon "
     << common::to_string(config.spec.horizon) << "\n\n";

  if (config.spec.cores > 1) {
    // Pack once; analysis, sim and exec all use the same assignment.
    const auto verdict = mp::analyze(config.spec, config.partition);
    render_partition(os, config, verdict);
    mp::MpRunOptions mp_options;
    mp_options.strategy = config.partition;
    mp_options.policy = config.policy;
    mp_options.backend = config.backend;
    mp_options.exec = config.exec_options;
    mp_options.quantum = config.quantum;
    mp_options.rebalance = config.rebalance;
    if (config.mode == RunMode::kSim || config.mode == RunMode::kBoth) {
      mp::MpRunOptions sim_options = mp_options;
      sim_options.engine = mp::RunEngine::kSim;
      const auto run = mp::run(config.spec, verdict.partition, sim_options);
      render_run(os, config, "partitioned simulation", run.merged);
      if (config.spec.uses_channels()) {
        os << "note: the simulator has no channel fabric — triggered and"
              " migratable jobs stay unserved, fires are ignored\n\n";
      }
      if (config.policy != mp::SchedPolicy::kPartitioned) {
        os << "note: the simulator always runs the static partition — the "
           << mp::to_string(config.policy)
           << " policy applies to the execution engine only\n\n";
      }
      if (config.rebalance.mode != mp::RebalanceMode::kOff) {
        os << "note: the simulator never rebalances — rebalance = "
           << mp::to_string(config.rebalance.mode)
           << " applies to the execution engine only\n\n";
      }
    }
    if (config.mode == RunMode::kExec || config.mode == RunMode::kBoth) {
      common::MetricsRegistry metrics;
      if (!config.metrics_json_path.empty()) {
        mp_options.metrics = &metrics;
      }
      // The threads backend measures wall-clock throughput; always collect
      // metrics for it so the report can show the measurement even without
      // --metrics-json.
      if (config.backend == mp::ExecBackend::kThreads) {
        mp_options.metrics = &metrics;
      }
      const auto run = mp::run(config.spec, verdict.partition, mp_options);
      const std::string substrate =
          config.backend == mp::ExecBackend::kThreads
              ? "pinned worker threads"
              : "lock-step VMs";
      const std::string exec_label =
          config.policy == mp::SchedPolicy::kPartitioned
              ? "partitioned execution (" + substrate + ")"
              : std::string(mp::to_string(config.policy)) + " execution (" +
                    substrate + ")";
      render_run(os, config, exec_label, run.merged);
      if (config.backend == mp::ExecBackend::kThreads) {
        os << "threads backend: wall "
           << common::fmt_fixed(metrics.gauge("threads.wall_seconds") * 1e3, 2)
           << "ms, " << common::fmt_fixed(
                  metrics.gauge("threads.events_per_sec") / 1e3, 1)
           << "k events/s, "
           << static_cast<std::size_t>(metrics.gauge("threads.workers_pinned"))
           << "/" << config.spec.cores << " workers pinned\n";
      }
      if (!run.channel_deliveries.empty() || run.channel_in_flight > 0 ||
          config.policy != mp::SchedPolicy::kPartitioned) {
        const auto ch = exp::compute_channel_metrics(run.channel_deliveries,
                                                     run.merged);
        os << "cross-core channels: " << ch.delivered << " delivered, "
           << ch.failed << " failed, " << run.channel_in_flight
           << " in flight at horizon\n";
        if (ch.delivered > 0) {
          os << "channel latency (quantum "
             << common::to_string(config.quantum) << "): mean "
             << common::fmt_fixed(ch.latency_mean_tu, 2) << "tu, p50 "
             << common::fmt_fixed(ch.latency_p50_tu, 2) << "tu, p95 "
             << common::fmt_fixed(ch.latency_p95_tu, 2) << "tu, p99 "
             << common::fmt_fixed(ch.latency_p99_tu, 2) << "tu\n";
        }
        if (ch.e2e_samples > 0) {
          os << "cross-core response (post to completion): p50 "
             << common::fmt_fixed(ch.e2e_p50_tu, 2) << "tu, p95 "
             << common::fmt_fixed(ch.e2e_p95_tu, 2) << "tu, p99 "
             << common::fmt_fixed(ch.e2e_p99_tu, 2) << "tu\n";
        }
        if (config.policy != mp::SchedPolicy::kPartitioned) {
          os << "scheduling (" << mp::to_string(config.policy) << "): "
             << ch.pool_dispatches << " pool dispatches, " << ch.steals
             << " steals";
          if (ch.pool_dispatches + ch.steals > 0) {
            os << ", wait mean "
               << common::fmt_fixed(ch.sched_wait_mean_tu, 2) << "tu, p99 "
               << common::fmt_fixed(ch.sched_wait_p99_tu, 2) << "tu";
          }
          os << '\n';
        }
      }
      if (config.rebalance.mode != mp::RebalanceMode::kOff) {
        os << "rebalancing (" << mp::to_string(config.rebalance.mode)
           << ", drift " << common::fmt_fixed(config.rebalance.drift, 2)
           << ", period " << common::to_string(config.rebalance.period)
           << "): " << run.rebalance_passes << " passes, "
           << run.rebalance_migrations << " migrations, "
           << run.rebalance_admissions << " admissions";
        if (run.rebalance_still_rejected > 0) {
          os << ", " << run.rebalance_still_rejected << " still rejected";
        }
        os << "\npost-rebalance utilization:";
        for (std::size_t c = 0; c < run.rebalance_utilization.size(); ++c) {
          os << " c" << c << "="
             << common::fmt_fixed(run.rebalance_utilization[c], 3);
        }
        os << '\n';
      }
      if (config.exec_options.overload.enabled()) {
        const auto& ov = config.exec_options.overload;
        os << "overload (" << exp::to_string(ov.mode) << ", threshold "
           << common::fmt_fixed(ov.threshold, 2) << ", period "
           << common::to_string(ov.period) << "): " << run.sheds
           << " shed, " << run.takeovers << " takeovers";
        if (ov.mode == exp::OverloadMode::kShed) {
          os << ", " << run.overload_passes << " passes";
        }
        os << '\n';
        std::size_t serving = 0;
        for (const auto& core : run.partition.cores) {
          if (core.has_server) ++serving;
        }
        const auto accrual = analysis::compute_value_accrual(
            config.spec, run.merged, serving);
        os << "value accrual: " << common::fmt_fixed(accrual.accrued, 2)
           << " of clairvoyant bound "
           << common::fmt_fixed(accrual.bound, 2) << " (ratio "
           << common::fmt_fixed(accrual.ratio, 3) << ")\n";
        const auto violations = mp::check_overload_invariants(config.spec,
                                                              run);
        if (violations.empty()) {
          os << "forbidden-behavior check: clean ("
             << "serve-after-shed, shed-admitted-work, shed-ledger, "
                "admitted-deadline-miss)\n";
        } else {
          os << "forbidden-behavior check: " << violations.size()
             << " VIOLATION(S)\n";
          for (const auto& v : violations) {
            os << "  " << v.name << ": " << v.detail << '\n';
          }
        }
      }
      os << "trace fingerprint: " << std::hex
         << common::fingerprint(run.merged.timeline) << std::dec << "\n";
      if (!config.vcd_path.empty()) {
        // Per-core names ("c0/tau1"): one wire per entity, as they appear.
        write_vcd(os, config.vcd_path, run.merged.timeline,
                  common::StreamingVcd());
      }
      if (!config.trace_path.empty()) {
        write_trace_file(os, config.trace_path, run.merged.timeline);
      }
      if (!config.metrics_json_path.empty()) {
        fold_trace_summary(run.merged.timeline, &metrics);
        write_metrics_file(os, config.metrics_json_path, metrics);
      }
    }
    return os.str();
  }

  if (config.mode == RunMode::kSim || config.mode == RunMode::kBoth) {
    render_run(os, config, "simulation (theoretical policies)",
               sim::simulate(config.spec));
    if (config.spec.uses_channels()) {
      os << "note: the simulator has no channel fabric — triggered jobs"
            " stay unserved and fires are ignored\n\n";
    }
  }
  if (config.mode == RunMode::kExec || config.mode == RunMode::kBoth) {
    const auto result = exp::run_exec(config.spec, config.exec_options);
    render_run(os, config, "execution (RTSJ-style runtime)", result);
    if (!config.vcd_path.empty()) {
      write_vcd(os, config.vcd_path, result.timeline,
                common::StreamingVcd(spec_rows(config.spec)));
    }
    if (!config.trace_path.empty()) {
      write_trace_file(os, config.trace_path, result.timeline);
    }
    if (!config.metrics_json_path.empty()) {
      common::MetricsRegistry metrics;
      fold_trace_summary(result.timeline, &metrics);
      write_metrics_file(os, config.metrics_json_path, metrics);
    }
  }
  return os.str();
}

}  // namespace tsf::cli
