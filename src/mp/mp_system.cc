#include "mp/mp_system.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>

#include "common/diag.h"
#include "common/rng.h"
#include "common/trace_stream.h"
#include "mp/channel.h"
#include "mp/load_meter.h"
#include "mp/multi_vm.h"
#include "mp/overload.h"
#include "sim/simulator.h"

namespace tsf::mp {

using common::TimePoint;

// Whether a job is handed to the global shared ready pool instead of any
// core's static assignment: unpinned and released by time (a triggered job
// has no release of its own — it stays with its routed core so the fire
// has a resident event to hit).
static bool pool_scheduled(const model::AperiodicJobSpec& job) {
  return job.affinity < 0 && !job.triggered;
}

std::vector<model::SystemSpec> split_spec(const model::SystemSpec& spec,
                                          const Partition& partition,
                                          SchedPolicy policy) {
  std::vector<model::SystemSpec> out;
  out.reserve(partition.cores.size());
  for (std::size_t c = 0; c < partition.cores.size(); ++c) {
    const CoreAssignment& core = partition.cores[c];
    model::SystemSpec sub;
    sub.name = spec.name + "/c" + std::to_string(c);
    sub.cores = 1;
    sub.horizon = spec.horizon;
    sub.server = spec.server;
    if (!core.has_server) sub.server.policy = model::ServerPolicy::kNone;
    sub.periodic_tasks.reserve(core.tasks.size());
    for (std::size_t i : core.tasks) {
      model::PeriodicTaskSpec t = spec.periodic_tasks[i];
      t.affinity = static_cast<int>(c);
      sub.periodic_tasks.push_back(std::move(t));
    }
    sub.aperiodic_jobs.reserve(core.jobs.size());
    for (std::size_t j : core.jobs) {
      if (spec.aperiodic_jobs[j].migrate) continue;  // fabric-released
      if (policy == SchedPolicy::kGlobal &&
          pool_scheduled(spec.aperiodic_jobs[j])) {
        continue;  // lives in the shared ready pool, not on a core
      }
      // Affinity is preserved, not overwritten: -1 marks the job stealable
      // by the semi-partitioned policy.
      sub.aperiodic_jobs.push_back(spec.aperiodic_jobs[j]);
    }
    sub.channel_latency = spec.channel_latency;
    out.push_back(std::move(sub));
  }
  return out;
}

// Interleaves the per-core timelines into `out` by (instant, core), each
// record's entity prefixed "c<k>/". Every engine emits its timeline in time
// order, so one k-way pass gives exactly the order a stable sort of the
// core-order concatenation by instant would: a min-queue holds each core's
// next (instant, core), and the core on top hands over its run of records
// that precede every other core's head. A core whose timeline goes back in
// time breaks that premise, and panics here naming the core and the record.
static void interleave_timelines(
    const std::vector<model::RunResult>& per_core, common::Timeline* out) {
  using Head = std::pair<TimePoint, std::size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  std::vector<std::string> prefixes;
  std::size_t total = 0;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    const auto& records = per_core[c].timeline.records();
    total += records.size();
    prefixes.push_back("c" + std::to_string(c) + "/");
    if (!records.empty()) heads.emplace(records.front().at, c);
  }
  out->reserve(total);
  std::vector<std::size_t> next(per_core.size(), 0);
  while (!heads.empty()) {
    const std::size_t c = heads.top().second;
    heads.pop();
    const auto& records = per_core[c].timeline.records();
    std::size_t& i = next[c];
    do {
      const common::TraceRecord& r = records[i];
      TSF_ASSERT(i == 0 || records[i - 1].at <= r.at,
                 "core " << c << "'s trace is out of time order: record " << i
                         << " (" << common::to_string(r.kind) << " " << r.who
                         << " at " << r.at << ") follows one at "
                         << records[i - 1].at);
      std::string who;
      who.reserve(prefixes[c].size() + r.who.size());
      who.append(prefixes[c]).append(r.who);
      out->append({r.at, r.kind, std::move(who), r.value, r.note});
      ++i;
    } while (i < records.size() &&
             (heads.empty() || Head{records[i].at, c} < heads.top()));
    if (i < records.size()) heads.emplace(records[i].at, c);
  }
}

model::RunResult merge_results(const model::SystemSpec& spec,
                               const Partition& partition,
                               const std::vector<model::RunResult>& per_core) {
  TSF_ASSERT(per_core.size() == partition.cores.size(),
             "one result per core required");
  model::RunResult merged;

  // Every core's facts, concatenated in core order. Each (job, release) is
  // booked by exactly one core — a request leaves a core's queue either by
  // a move (booked nothing there, re-released on exactly one other core) or
  // with its outcome booked on that core — so nothing needs reconciling.
  // Each shed/takeover event (in decision order on its core) gets its
  // deciding core stamped.
  std::vector<model::JobOutcome> outcomes;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    const model::RunResult& result = per_core[c];
    outcomes.insert(outcomes.end(), result.jobs.begin(), result.jobs.end());
    merged.periodic_jobs.insert(merged.periodic_jobs.end(),
                                result.periodic_jobs.begin(),
                                result.periodic_jobs.end());
    for (model::ShedEvent event : result.shed_events) {
      event.core = c;
      merged.shed_events.push_back(std::move(event));
    }
    merged.server_activations += result.server_activations;
    merged.server_dispatches += result.server_dispatches;
  }

  merged.jobs = exp::in_spec_order(spec.aperiodic_jobs, std::move(outcomes),
                                   [](const std::string&) { return true; });
  // Periodic outcomes by release; ties keep core, then record order.
  std::stable_sort(merged.periodic_jobs.begin(), merged.periodic_jobs.end(),
                   [](const model::PeriodicOutcome& a,
                      const model::PeriodicOutcome& b) {
                     return a.release < b.release;
                   });
  interleave_timelines(per_core, &merged.timeline);
  return merged;
}

MpFeasibility analyze(const model::SystemSpec& spec,
                      PackingStrategy strategy) {
  MpFeasibility out;
  out.partition = Partitioner(strategy).partition(spec);

  std::vector<std::vector<model::PeriodicTaskSpec>> tasks_per_core;
  std::vector<const model::ServerSpec*> servers;
  tasks_per_core.reserve(out.partition.cores.size());
  servers.reserve(out.partition.cores.size());
  for (const auto& core : out.partition.cores) {
    std::vector<model::PeriodicTaskSpec> tasks;
    tasks.reserve(core.tasks.size());
    for (std::size_t i : core.tasks) tasks.push_back(spec.periodic_tasks[i]);
    tasks_per_core.push_back(std::move(tasks));
    servers.push_back(core.has_server ? &spec.server : nullptr);
  }
  out.per_core = analysis::analyze_cores(tasks_per_core, servers);
  out.feasible = out.per_core.feasible && out.partition.complete();
  return out;
}

namespace {

MpRunResult run_sim(const model::SystemSpec& spec, Partition partition) {
  MpRunResult out;
  out.partition = std::move(partition);
  const auto subs = split_spec(spec, out.partition);
  out.per_core.reserve(subs.size());
  for (const auto& sub : subs) out.per_core.push_back(sim::simulate(sub));
  out.merged = merge_results(spec, out.partition, out.per_core);
  return out;
}

MpRunResult run_exec(const model::SystemSpec& spec, Partition partition,
                     const MpRunOptions& options) {
  TSF_ASSERT(!spec.horizon.is_never(), "exec needs a finite horizon");
  MpRunResult out;
  out.partition = std::move(partition);
  const auto subs = split_spec(spec, out.partition, options.policy);

  ChannelConfig channel;
  channel.latency = spec.channel_latency;
  ChannelFabric fabric(subs.size(), channel);
  SchedPolicyEngine engine(options.policy, fabric);
  const bool global = options.policy == SchedPolicy::kGlobal;

  // Jobs that bypass the static split — migratables under every policy,
  // plus every unpinned untriggered job under global (they belong to the
  // shared ready pool). Execution-time jitter is applied here, once, from
  // the same seed the per-core systems use — deterministic in spec order.
  common::Rng jitter_rng(exp::kJitterSeed);
  for (const auto& job : spec.aperiodic_jobs) {
    const bool pooled = global && pool_scheduled(job);
    if (!job.migrate && !pooled) continue;
    exp::MigratedJob m{job.name, job.effective_declared_cost(),
                       exp::jittered_cost(jitter_rng, options.exec, job.cost),
                       job.fires, job.value, job.relative_deadline};
    if (pooled) {
      // The pool is a shared structure, not a channel: no channel_latency,
      // only the wait for the first epoch boundary >= release.
      engine.add_pool_job(std::move(m), job.release);
    } else {
      fabric.add_migratable(std::move(m), job.release);
    }
  }

  // One load meter, sampled once per boundary, feeds both the rebalancer
  // and the shed governor. Mode kDover needs no governor — the per-core
  // D-over queues shed and take over locally; their decisions surface
  // through the same per-core shed_events ledger the fold below collects.
  const bool rebalance = options.rebalance.mode != RebalanceMode::kOff;
  const bool shed = options.exec.overload.mode == exp::OverloadMode::kShed;
  std::optional<LoadMeter> meter;
  if (rebalance || shed) meter.emplace(fabric, spec, out.partition);
  std::unique_ptr<Rebalancer> rebalancer;
  if (rebalance) {
    rebalancer = std::make_unique<Rebalancer>(options.rebalance, fabric, *meter,
                                              spec, out.partition,
                                              options.strategy);
  }
  std::unique_ptr<OverloadGovernor> governor;
  if (shed) {
    governor = std::make_unique<OverloadGovernor>(options.exec.overload,
                                                  fabric, *meter);
  }

  const BoundaryStages stages{
      options.policy == SchedPolicy::kPartitioned ? nullptr : &engine,
      meter ? &*meter : nullptr, rebalancer.get(), governor.get()};
  double wall_seconds = 0.0;
  {
    // Scoped so the per-core worlds (fibers, timers) are gone before the
    // merge builds the combined timeline.
    MultiVm machine(subs, options.exec, fabric, stages);
    for (std::size_t c = 0;
         c < options.core_trace_sinks.size() && c < subs.size(); ++c) {
      if (options.core_trace_sinks[c] != nullptr) {
        machine.attach_trace_sink(c, options.core_trace_sinks[c]);
      }
    }
    machine.set_metrics(options.metrics);
    wall_seconds = machine.run(spec.horizon, options.quantum, options.backend);
    out.per_core = machine.collect();
  }
  out.merged = merge_results(spec, out.partition, out.per_core);
  out.channel_deliveries = fabric.deliveries();
  out.channel_in_flight = fabric.in_flight() + engine.pool_pending();
  out.pool_dispatches = engine.pool_dispatches();
  out.steals = engine.steal_count();
  if (rebalancer != nullptr) {
    out.rebalance_passes = rebalancer->passes();
    out.rebalance_migrations = rebalancer->migrations();
    out.rebalance_admissions = rebalancer->admissions();
    out.rebalance_still_rejected = rebalancer->still_rejected();
    out.rebalance_utilization = rebalancer->measured_utilization();
  }
  if (governor != nullptr) {
    out.overload_passes = governor->passes();
    out.overload_utilization = governor->measured_utilization();
  }
  for (const auto& event : out.merged.shed_events) {
    ++(event.kind == model::ShedEvent::Kind::kTakeover ? out.takeovers
                                                       : out.sheds);
  }
  if (options.metrics != nullptr) {
    common::MetricsRegistry& m = *options.metrics;
    m.add_counter("mp.channel.in_flight_at_horizon", out.channel_in_flight);
    m.add_counter("mp.policy.pool_dispatches", out.pool_dispatches);
    m.add_counter("mp.policy.steals", out.steals);
    m.add_counter("mp.rebalance.passes", out.rebalance_passes);
    m.add_counter("mp.rebalance.migrations", out.rebalance_migrations);
    m.add_counter("mp.rebalance.admissions", out.rebalance_admissions);
    m.add_counter("mp.overload.passes", out.overload_passes);
    m.add_counter("mp.overload.sheds", out.sheds);
    m.add_counter("mp.overload.takeovers", out.takeovers);
    // Busy fraction of each core over the whole run: entities of one core
    // never overlap, so the per-entity busy windows sum to processor time.
    // One replay per core folds every entity's windows at once.
    const double horizon_ticks =
        static_cast<double>((spec.horizon - TimePoint::origin()).count());
    for (std::size_t c = 0; c < out.per_core.size(); ++c) {
      common::StreamingTraceMetrics busy;
      for (const auto& r : out.per_core[c].timeline.records()) {
        busy.record(r.at, r.kind, r.who, r.value, r.note);
      }
      m.set_gauge("mp.core." + std::to_string(c) + ".utilization",
                  horizon_ticks > 0.0
                      ? static_cast<double>(busy.busy_ticks()) / horizon_ticks
                      : 0.0);
    }
    if (options.backend == ExecBackend::kThreads) {
      // The measurement the deterministic oracle can't make: wall-clock
      // throughput and response-time tails on real threads. The response
      // samples are virtual-time quantities (identical to the oracle's,
      // cross-validated by backend_equivalence_test); the *_per_sec gauges
      // and wall_seconds are host measurements and vary run to run.
      std::size_t served = 0;
      for (const auto& job : out.merged.jobs) {
        if (!job.served) continue;
        ++served;
        m.observe("threads.response_tu", job.response().to_tu());
      }
      if (wall_seconds > 0.0) {
        m.set_gauge("threads.events_per_sec",
                    static_cast<double>(out.merged.timeline.records().size()) /
                        wall_seconds);
        m.set_gauge("threads.jobs_per_sec",
                    static_cast<double>(served) / wall_seconds);
      }
    }
  }
  return out;
}

}  // namespace

MpRunResult run(const model::SystemSpec& spec, const MpRunOptions& options) {
  return run(spec, Partitioner(options.strategy).partition(spec), options);
}

MpRunResult run(const model::SystemSpec& spec, Partition partition,
                const MpRunOptions& options) {
  switch (options.engine) {
    case RunEngine::kSim:
      return run_sim(spec, std::move(partition));
    case RunEngine::kExec:
      return run_exec(spec, std::move(partition), options);
  }
  TSF_PANIC("unknown run engine");
}

}  // namespace tsf::mp
