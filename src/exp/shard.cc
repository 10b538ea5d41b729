#include "exp/shard.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/diag.h"
#include "sim/simulator.h"

namespace tsf::exp {

namespace {

// ------------------------------------------------------------ spec digest

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix_bytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void mix_string(std::uint64_t* h, const std::string& s) {
  const std::size_t n = s.size();
  mix_bytes(h, &n, sizeof n);
  mix_bytes(h, s.data(), s.size());
}

void mix_i64(std::uint64_t* h, std::int64_t v) { mix_bytes(h, &v, sizeof v); }

void mix_double(std::uint64_t* h, double v) { mix_bytes(h, &v, sizeof v); }

}  // namespace

std::uint64_t digest_spec(const model::SystemSpec& spec) {
  std::uint64_t h = kFnvOffset;
  mix_string(&h, spec.name);
  mix_i64(&h, spec.cores);
  mix_i64(&h, spec.horizon.ticks());
  mix_i64(&h, spec.channel_latency.count());
  mix_i64(&h, static_cast<std::int64_t>(spec.server.policy));
  mix_i64(&h, spec.server.capacity.count());
  mix_i64(&h, spec.server.period.count());
  mix_i64(&h, spec.server.priority);
  mix_i64(&h, static_cast<std::int64_t>(spec.server.queue));
  mix_i64(&h, spec.server.strict_capacity ? 1 : 0);
  mix_i64(&h, spec.server.admission_margin.count());
  for (const auto& t : spec.periodic_tasks) {
    mix_string(&h, t.name);
    mix_i64(&h, t.period.count());
    mix_i64(&h, t.cost.count());
    mix_i64(&h, t.deadline.count());
    mix_i64(&h, t.start.ticks());
    mix_i64(&h, t.priority);
    mix_i64(&h, t.affinity);
  }
  for (const auto& j : spec.aperiodic_jobs) {
    mix_string(&h, j.name);
    mix_i64(&h, j.release.ticks());
    mix_i64(&h, j.cost.count());
    mix_i64(&h, j.declared_cost.count());
    mix_i64(&h, j.relative_deadline.count());
    mix_double(&h, j.value);
    mix_i64(&h, j.affinity);
    mix_string(&h, j.fires);
    mix_i64(&h, j.triggered ? 1 : 0);
    mix_i64(&h, j.migrate ? 1 : 0);
  }
  return h;
}

// ---------------------------------------------------------------- run_cell

CellResult run_cell(const WorkUnit& unit) {
  if (unit.crash_for_test) {
    throw std::runtime_error("crash_for_test is set");
  }
  using clock = std::chrono::steady_clock;

  // Generation is hoisted out of the timed region: materialize (and, when
  // asked, re-margin) every system first, so run_seconds measures runs.
  const auto gen_start = clock::now();
  std::vector<model::SystemSpec> specs =
      gen::RandomSystemGenerator(unit.params).generate();
  CellResult out;
  std::uint64_t digest = kFnvOffset;
  for (auto& spec : specs) {
    if (unit.admission_margin) {
      spec.server.admission_margin = *unit.admission_margin;
    }
    const std::uint64_t d = digest_spec(spec);
    mix_bytes(&digest, &d, sizeof d);
  }
  out.spec_digest = digest;
  const auto run_start = clock::now();

  std::vector<model::RunResult> runs;
  runs.reserve(specs.size());
  for (const auto& spec : specs) {
    runs.push_back(unit.mode == Mode::kSimulation
                       ? sim::simulate(spec)
                       : run_exec(spec, unit.exec_options));
  }
  out.metrics = compute_set_metrics(runs);
  const auto run_end = clock::now();
  out.gen_seconds = std::chrono::duration<double>(run_start - gen_start).count();
  out.run_seconds = std::chrono::duration<double>(run_end - run_start).count();
  return out;
}

// --------------------------------------------------------------- run_units

ShardOutcome run_units(const std::vector<WorkUnit>& units,
                       const ShardOptions& options) {
  ShardOutcome outcome;
  outcome.cells.resize(units.size());
  // Slot i of `cells` and `errors` is written only by the thread that took
  // index i; joining the helpers publishes every slot to this thread.
  std::vector<std::optional<std::string>> errors(units.size());
  std::atomic<std::size_t> next{0};
  // Once a cell fails no further index is taken. Every lower index was
  // taken before the failing one and still finishes, so the first failure
  // in unit order is the same for any thread count.
  std::atomic<bool> stop{false};
  const auto work = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= units.size()) return;
      const common::PanicContext context("running cell '" + units[i].label +
                                         "'");
      try {
        outcome.cells[i] = run_cell(units[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      } catch (...) {
        errors[i] = "unknown exception";
      }
      if (errors[i]) stop.store(true, std::memory_order_relaxed);
    }
  };
  const std::size_t threads = std::min(
      static_cast<std::size_t>(std::max(options.jobs, 1)), units.size());
  {
    std::vector<std::jthread> helpers;  // joined when they go out of scope
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
    work();
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (errors[i]) {
      outcome.error = "cell '" + units[i].label + "' failed: " + *errors[i];
      return outcome;
    }
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace tsf::exp
