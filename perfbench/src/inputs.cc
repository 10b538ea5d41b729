#include "inputs.h"

#include <cstdio>
#include <sstream>

#include "exp/exec_runner.h"
#include "exp/tables.h"
#include "gen/generator.h"
#include "gen/storms.h"

namespace perfbench {

using tsf::common::Duration;
using tsf::common::TimePoint;

namespace {

// Exact milli-tu decimal (1 tu == 1000 ticks).
std::string tu(Duration d) {
  const auto ticks = d.count();
  std::string out = std::to_string(ticks / Duration::kTicksPerTimeUnit);
  const auto frac = ticks % Duration::kTicksPerTimeUnit;
  if (frac != 0) {
    char buf[8];
    std::snprintf(buf, sizeof buf, ".%03lld", static_cast<long long>(frac));
    std::string tail(buf);
    while (tail.back() == '0') tail.pop_back();
    out += tail;
  }
  return out;
}

std::string tu(TimePoint t) { return tu(t - TimePoint::origin()); }

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* policy_key(model::ServerPolicy p) {
  switch (p) {
    case model::ServerPolicy::kNone:
      return "none";
    case model::ServerPolicy::kBackground:
      return "background";
    case model::ServerPolicy::kPolling:
      return "polling";
    case model::ServerPolicy::kDeferrable:
      return "deferrable";
    case model::ServerPolicy::kSporadic:
      return "sporadic";
  }
  return "?";
}

const char* queue_key(model::QueueDiscipline q) {
  switch (q) {
    case model::QueueDiscipline::kStrictFifo:
      return "fifo";
    case model::QueueDiscipline::kFifoFirstFit:
      return "first-fit";
    case model::QueueDiscipline::kListOfLists:
      return "list-of-lists";
  }
  return "?";
}

FileInput with_text(model::SystemSpec spec, const RunSection& run) {
  std::string text = to_spec_text(spec, run);
  return {std::move(spec), std::move(text)};
}

}  // namespace

FileInput make_uni_stream(std::uint64_t seed) {
  tsf::gen::GeneratorParams p;
  p.task_density = 1.5;
  p.average_cost_tu = 1.0;
  p.std_deviation_tu = 0.5;
  p.server_capacity = Duration::time_units(3);
  p.server_period = Duration::time_units(6);
  p.server_priority = 30;
  p.policy = model::ServerPolicy::kPolling;
  p.nb_generation = 1;
  p.horizon_periods = kUniStreamPeriods;
  p.seed = seed;
  model::PeriodicTaskSpec tau1;
  tau1.name = "tau1";
  tau1.period = Duration::time_units(6);
  tau1.cost = Duration::time_units(2);
  tau1.priority = 20;
  p.periodic_tasks.push_back(tau1);
  model::SystemSpec spec = tsf::gen::RandomSystemGenerator(p).generate().at(0);
  spec.name = "uni_stream";
  RunSection run;
  // The epoch of the threads-backend run of this one-core spec: one
  // server period. A single worker has nothing to exchange at a boundary.
  run.quantum = "6";
  return with_text(std::move(spec), run);
}

FileInput make_storm_quad(std::uint64_t seed) {
  tsf::gen::StormParams p;
  p.shape = tsf::gen::StormShape::kRouterPacketStorm;
  p.seed = seed;
  p.cores = kStormCores;
  p.overload_factor = kStormOverload;
  p.horizon_periods = kStormPeriods;
  model::SystemSpec spec = tsf::gen::make_storm(p);
  spec.name = "storm_quad";

  // Fire chains: each control packet acknowledges through a triggered job
  // on a round-robin core, so fires cross the channel fabric.
  std::vector<model::AperiodicJobSpec> acks;
  for (auto& job : spec.aperiodic_jobs) {
    if (job.value != job.cost.to_tu() * 8.0) continue;
    model::AperiodicJobSpec ack;
    ack.name = "ack" + std::to_string(acks.size());
    ack.cost = Duration::ticks(200);
    ack.triggered = true;
    ack.affinity = static_cast<int>(acks.size() % kStormCores);
    job.fires = ack.name;
    acks.push_back(std::move(ack));
  }
  spec.aperiodic_jobs.insert(spec.aperiodic_jobs.end(), acks.begin(),
                             acks.end());

  RunSection run;
  run.mode = "exec";
  run.overheads = "ideal";
  run.cores = kStormCores;
  run.partition = "wfd";
  run.policy = "semi";
  run.quantum = "0.5";
  run.rebalance = "drift";
  run.overload = "shed";
  return with_text(std::move(spec), run);
}

std::vector<tsf::exp::WorkUnit> make_paper_grid(std::uint64_t seed) {
  struct Table {
    const char* id;
    model::ServerPolicy policy;
    tsf::exp::Mode mode;
  };
  const Table tables[] = {
      {"table2", model::ServerPolicy::kPolling, tsf::exp::Mode::kSimulation},
      {"table3", model::ServerPolicy::kPolling, tsf::exp::Mode::kExecution},
      {"table4", model::ServerPolicy::kDeferrable,
       tsf::exp::Mode::kSimulation},
      {"table5", model::ServerPolicy::kDeferrable,
       tsf::exp::Mode::kExecution},
  };
  std::vector<tsf::exp::WorkUnit> units;
  for (const auto& t : tables) {
    const auto options = t.mode == tsf::exp::Mode::kExecution
                             ? tsf::exp::paper_execution_options()
                             : tsf::exp::ideal_execution_options();
    for (auto& unit : tsf::exp::paper_table_units(t.id, t.policy, t.mode,
                                                  options)) {
      unit.params.nb_generation = kGridSystemsPerCell;
      unit.params.seed = seed;
      units.push_back(std::move(unit));
    }
  }
  return units;
}

std::vector<model::SystemSpec> make_grid_sample(std::uint64_t seed) {
  auto params = tsf::exp::paper_generator_params(
      tsf::exp::PaperSet{3.0, 2.0}, model::ServerPolicy::kDeferrable);
  params.nb_generation = kGridSampleSystems;
  params.seed = seed;
  return tsf::gen::RandomSystemGenerator(params).generate();
}

std::string to_spec_text(const model::SystemSpec& spec, const RunSection& run) {
  std::ostringstream out;
  out << "# " << spec.name << ": generated by perfbench; do not edit.\n\n";
  const auto& server = spec.server;
  out << "[server]\npolicy = " << policy_key(server.policy)
      << "\ncapacity = " << tu(server.capacity)
      << "\nperiod = " << tu(server.period)
      << "\npriority = " << server.priority
      << "\nqueue = " << queue_key(server.queue) << '\n';
  if (server.strict_capacity) out << "strict = yes\n";
  if (!server.admission_margin.is_zero()) {
    out << "margin = " << tu(server.admission_margin) << '\n';
  }
  for (const auto& t : spec.periodic_tasks) {
    out << "\n[task " << t.name << "]\nperiod = " << tu(t.period)
        << "\ncost = " << tu(t.cost) << "\npriority = " << t.priority << '\n';
    if (!t.deadline.is_zero()) out << "deadline = " << tu(t.deadline) << '\n';
    if (t.start != TimePoint::origin()) out << "start = " << tu(t.start) << '\n';
    if (t.affinity >= 0) out << "affinity = " << t.affinity << '\n';
  }
  for (const auto& j : spec.aperiodic_jobs) {
    out << "\n[job " << j.name << "]\n";
    if (j.triggered) {
      out << "triggered = yes\n";
    } else {
      out << "release = " << tu(j.release) << '\n';
    }
    out << "cost = " << tu(j.cost) << '\n';
    if (!j.declared_cost.is_zero()) {
      out << "declared = " << tu(j.declared_cost) << '\n';
    }
    if (!j.relative_deadline.is_zero()) {
      out << "deadline = " << tu(j.relative_deadline) << '\n';
    }
    if (j.value != 0.0) out << "value = " << number(j.value) << '\n';
    if (j.affinity >= 0) out << "affinity = " << j.affinity << '\n';
    if (!j.fires.empty()) out << "fires = " << j.fires << '\n';
    if (j.migrate) out << "migrate = yes\n";
  }
  out << "\n[run]\nhorizon = " << tu(spec.horizon) << "\nmode = " << run.mode
      << "\noverheads = " << run.overheads << "\ngantt = no\n";
  if (run.cores > 1) out << "cores = " << run.cores << '\n';
  if (!run.partition.empty()) out << "partition = " << run.partition << '\n';
  if (!run.policy.empty()) out << "policy = " << run.policy << '\n';
  if (!run.quantum.empty()) out << "quantum = " << run.quantum << '\n';
  if (!run.rebalance.empty()) out << "rebalance = " << run.rebalance << '\n';
  if (!run.overload.empty()) out << "overload = " << run.overload << '\n';
  if (!spec.channel_latency.is_zero()) {
    out << "channel_latency = " << tu(spec.channel_latency) << '\n';
  }
  return out.str();
}

std::vector<std::string> spec_differences(const model::SystemSpec& generated,
                                          const model::SystemSpec& loaded) {
  std::vector<std::string> diffs;
  auto check = [&](bool equal, const std::string& what) {
    if (!equal) diffs.push_back(what);
  };
  const auto& a = generated;
  const auto& b = loaded;
  check(a.horizon == b.horizon, "horizon");
  check(a.cores == b.cores, "cores");
  check(a.channel_latency == b.channel_latency, "channel_latency");
  check(a.server.policy == b.server.policy, "server.policy");
  check(a.server.capacity == b.server.capacity, "server.capacity");
  check(a.server.period == b.server.period, "server.period");
  check(a.server.priority == b.server.priority, "server.priority");
  check(a.server.queue == b.server.queue, "server.queue");
  check(a.server.strict_capacity == b.server.strict_capacity, "server.strict");
  check(a.server.admission_margin == b.server.admission_margin,
        "server.margin");
  check(a.periodic_tasks.size() == b.periodic_tasks.size(), "task count");
  for (std::size_t i = 0;
       i < a.periodic_tasks.size() && i < b.periodic_tasks.size(); ++i) {
    const auto& x = a.periodic_tasks[i];
    const auto& y = b.periodic_tasks[i];
    const std::string at = "task " + x.name + ": ";
    check(x.name == y.name, at + "name");
    check(x.period == y.period, at + "period");
    check(x.cost == y.cost, at + "cost");
    check(x.deadline == y.deadline, at + "deadline");
    check(x.start == y.start, at + "start");
    check(x.priority == y.priority, at + "priority");
    check(x.affinity == y.affinity, at + "affinity");
  }
  check(a.aperiodic_jobs.size() == b.aperiodic_jobs.size(), "job count");
  for (std::size_t i = 0;
       i < a.aperiodic_jobs.size() && i < b.aperiodic_jobs.size(); ++i) {
    const auto& x = a.aperiodic_jobs[i];
    const auto& y = b.aperiodic_jobs[i];
    const std::string at = "job " + x.name + ": ";
    check(x.name == y.name, at + "name");
    check(x.release == y.release, at + "release");
    check(x.cost == y.cost, at + "cost");
    check(x.declared_cost == y.declared_cost, at + "declared");
    check(x.relative_deadline == y.relative_deadline, at + "deadline");
    check(x.value == y.value, at + "value");
    check(x.affinity == y.affinity, at + "affinity");
    check(x.fires == y.fires, at + "fires");
    check(x.triggered == y.triggered, at + "triggered");
    check(x.migrate == y.migrate, at + "migrate");
  }
  return diffs;
}

}  // namespace perfbench
