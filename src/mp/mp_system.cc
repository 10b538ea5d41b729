#include "mp/mp_system.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
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

const char* to_string(RunEngine engine) {
  switch (engine) {
    case RunEngine::kSim:
      return "sim";
    case RunEngine::kExec:
      return "exec";
  }
  return "?";
}

std::optional<RunEngine> parse_run_engine(std::string_view name) {
  if (name == "sim") return RunEngine::kSim;
  if (name == "exec") return RunEngine::kExec;
  return std::nullopt;
}

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

// How final an outcome is, for the (job, release) dedupe: a served record
// beats an interrupted or shed one beats an unserved placeholder. A shed
// outcome is final — the overload policy decided the job's fate, and the
// record must not be dropped as a shadow of some other core's pending copy.
static int outcome_rank(const model::JobOutcome& o) {
  if (o.served) return 2;
  if (o.interrupted || o.shed) return 1;
  return 0;
}

model::RunResult merge_results(const model::SystemSpec& spec,
                               const Partition& partition,
                               const std::vector<model::RunResult>& per_core) {
  TSF_ASSERT(per_core.size() == partition.cores.size(),
             "one result per core required");
  model::RunResult merged;

  // Dedupe by (job, release): with run-time job movement (work stealing,
  // pool dispatch) a job can complete on a non-home core while its home
  // core still reports the same release as unserved — per-core outcomes
  // are no longer disjoint. The dedupe is strictly *cross-core*: within
  // one core every record is real (a re-fired triggered job can carry two
  // releases at the same instant, one served and one still pending), so
  // nothing a single core reports is ever collapsed. Across cores, an
  // unserved record is a shadow — of a completed record on another core
  // (the job was stolen and ran there) or of another core's unserved
  // record (it was stolen and is still pending there) — and is dropped.
  using Key = std::pair<std::string, common::TimePoint>;
  std::map<Key, std::set<std::size_t>> completed_cores;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (const auto& outcome : per_core[c].jobs) {
      if (outcome_rank(outcome) > 0) {
        completed_cores[{outcome.name, outcome.release}].insert(c);
      }
    }
  }
  std::vector<const model::JobOutcome*> deduped;  // core, then record order
  std::map<Key, std::size_t> unserved_kept_on;    // key -> first keeping core
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (const auto& outcome : per_core[c].jobs) {
      const Key key{outcome.name, outcome.release};
      if (outcome_rank(outcome) > 0) {
        deduped.push_back(&outcome);
        continue;
      }
      const auto done = completed_cores.find(key);
      if (done != completed_cores.end() &&
          (done->second.size() > 1 || *done->second.begin() != c)) {
        continue;  // shadow of a completion on another core
      }
      const auto kept = unserved_kept_on.find(key);
      if (kept != unserved_kept_on.end() && kept->second != c) {
        continue;  // shadow of another core's unserved record
      }
      unserved_kept_on.emplace(key, c);
      deduped.push_back(&outcome);
    }
  }

  // Aperiodic outcomes, restored to the original spec order. One name can
  // carry several outcomes (a triggered job fired repeatedly): the first
  // release fills the spec-ordered slot, the rest are appended after it in
  // name order — deterministic, and the released/served counts stay honest.
  std::map<std::string, std::vector<const model::JobOutcome*>> by_name;
  for (const auto* outcome : deduped) {
    by_name[outcome->name].push_back(outcome);
  }
  merged.jobs.reserve(spec.aperiodic_jobs.size());
  for (const auto& job : spec.aperiodic_jobs) {
    auto it = by_name.find(job.name);
    if (it != by_name.end() && !it->second.empty()) {
      merged.jobs.push_back(*it->second.front());
      it->second.erase(it->second.begin());
    } else {
      // Never ran anywhere: a migratable job with no serving core, or a
      // triggered job nobody fired (or a core that was never built).
      model::JobOutcome o;
      o.name = job.name;
      o.release = job.release;
      o.cost = job.cost;
      merged.jobs.push_back(o);
    }
  }
  for (const auto& [name, extras] : by_name) {
    for (const auto* outcome : extras) merged.jobs.push_back(*outcome);
  }

  // Periodic outcomes: stable order — by release, then core, then record
  // order (std::stable_sort over the concatenation in core order).
  for (const auto& result : per_core) {
    merged.periodic_jobs.insert(merged.periodic_jobs.end(),
                                result.periodic_jobs.begin(),
                                result.periodic_jobs.end());
  }
  std::stable_sort(merged.periodic_jobs.begin(), merged.periodic_jobs.end(),
                   [](const model::PeriodicOutcome& a,
                      const model::PeriodicOutcome& b) {
                     return a.release < b.release;
                   });

  // Timelines: namespace entities per core, then stably merge by instant so
  // simultaneous records keep core order — fully deterministic.
  std::vector<common::TraceRecord> records;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    const std::string prefix = "c" + std::to_string(c) + "/";
    for (const auto& r : per_core[c].timeline.records()) {
      records.push_back(r);
      records.back().who = prefix + r.who;
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const common::TraceRecord& a,
                      const common::TraceRecord& b) { return a.at < b.at; });
  for (auto& r : records) {
    merged.timeline.record(r.at, r.kind, std::move(r.who), r.value,
                           std::move(r.note));
  }

  // The shed/takeover ledger: concatenated in core order (each core's
  // events are already in decision order), with the deciding core stamped.
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (model::ShedEvent event : per_core[c].shed_events) {
      event.core = c;
      merged.shed_events.push_back(std::move(event));
    }
  }

  for (const auto& result : per_core) {
    merged.server_activations += result.server_activations;
    merged.server_dispatches += result.server_dispatches;
  }
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
  common::Rng jitter_rng(options.exec.jitter_seed);
  for (const auto& job : spec.aperiodic_jobs) {
    const bool pooled = global && pool_scheduled(job);
    if (!job.migrate && !pooled) continue;
    exp::MigratedJob m;
    m.name = job.name;
    m.declared_cost = job.effective_declared_cost();
    m.actual_cost = exp::jittered_cost(jitter_rng, options.exec, job.cost);
    m.fires = job.fires;
    m.value = job.value;
    m.relative_deadline = job.relative_deadline;
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
  // Fold the per-core shed/takeover ledger into the delivery ledger — one
  // kShed / kTakeover record per event, deciding core on both ends — so the
  // channel metrics and the invariant checker read a single source.
  for (const auto& event : out.merged.shed_events) {
    exp::ChannelDelivery d;
    d.kind = event.kind == model::ShedEvent::Kind::kTakeover
                 ? exp::ChannelDelivery::Kind::kTakeover
                 : exp::ChannelDelivery::Kind::kShed;
    d.job = event.job;
    d.from_core = event.core;
    d.to_core = event.core;
    d.posted = event.release;
    d.delivered = event.at;
    d.ok = true;
    out.channel_deliveries.push_back(std::move(d));
    if (event.kind == model::ShedEvent::Kind::kTakeover) {
      ++out.takeovers;
    } else {
      ++out.sheds;
    }
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
