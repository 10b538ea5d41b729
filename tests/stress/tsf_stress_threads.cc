// tsf_stress_threads — time-budgeted stress of the real-threads backend.
//
// Hammers the nastiest configuration the backend supports — 4 cores,
// semi-partitioned stealing plus drift rebalancing plus cost jitter, so
// every epoch boundary moves work between cores, and every aperiodic job
// firing a triggered job, so several cores fill their outboxes in the same
// epoch — and cross-validates every run against a lock-step oracle
// signature computed once up front. Any divergence (served/missed sets,
// trace fingerprint) or crash fails the binary.
//
// Registered as ctest `tsf_stress_threads` under CONFIGURATIONS stress, so
// the default label sweep skips it; CI runs it explicitly with
// `ctest -C stress`. Budget defaults to 120 seconds of wall clock;
// override with TSF_STRESS_SECONDS (e.g. =5 for a smoke run).
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/trace.h"
#include "mp/mp_system.h"

namespace {

using tsf::common::Duration;
using tsf::common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

tsf::model::SystemSpec stress_spec(int cores) {
  tsf::model::SystemSpec spec;
  spec.name = "stress-threads";
  spec.cores = cores;
  spec.server.policy = tsf::model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < cores; ++c) {
    tsf::model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(3);
    t.priority = 10;
    spec.periodic_tasks.push_back(t);
  }
  for (int j = 0; j < 16; ++j) {
    tsf::model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = at_tu(1 + 2 * j);
    job.cost = tu(1);
    job.fires = "trig";
    spec.aperiodic_jobs.push_back(job);
  }
  tsf::model::AperiodicJobSpec trig;
  trig.name = "trig";
  trig.triggered = true;
  trig.cost = tu(1);
  spec.aperiodic_jobs.push_back(trig);
  for (int r = 0; r < 3; ++r) {
    tsf::model::AperiodicJobSpec roam;
    roam.name = "roam" + std::to_string(r);
    roam.release = at_tu(3 + 4 * r);
    roam.cost = tu(1);
    roam.migrate = true;
    spec.aperiodic_jobs.push_back(roam);
  }
  spec.horizon = at_tu(48);
  return spec;
}

struct Signature {
  std::set<std::pair<std::string, std::int64_t>> served;
  std::set<std::pair<std::string, std::int64_t>> missed;
  std::uint64_t fingerprint = 0;

  bool operator==(const Signature& other) const {
    return served == other.served && missed == other.missed &&
           fingerprint == other.fingerprint;
  }
};

Signature signature_of(const tsf::mp::MpRunResult& run) {
  Signature sig;
  for (const auto& job : run.merged.jobs) {
    const auto key = std::make_pair(
        job.name, (job.release - TimePoint::origin()).count());
    (job.served ? sig.served : sig.missed).insert(key);
  }
  sig.fingerprint = tsf::common::fingerprint(run.merged.timeline);
  return sig;
}

// Whether some epoch boundary delivers fires posted by two or more cores:
// only then do several outboxes hold data in the same epoch.
bool fires_from_several_cores_in_one_epoch(const tsf::mp::MpRunResult& run) {
  std::map<TimePoint, std::set<std::size_t>> producers;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind == tsf::exp::ChannelDelivery::Kind::kFire && d.ok) {
      producers[d.delivered].insert(d.from_core);
    }
  }
  for (const auto& [boundary, cores] : producers) {
    if (cores.size() >= 2) return true;
  }
  return false;
}

}  // namespace

int main() {
  double budget_seconds = 120.0;
  if (const char* env = std::getenv("TSF_STRESS_SECONDS")) {
    budget_seconds = std::atof(env);
    if (budget_seconds <= 0.0) budget_seconds = 120.0;
  }

  const auto spec = stress_spec(4);
  tsf::mp::MpRunOptions options;
  options.policy = tsf::mp::SchedPolicy::kSemiPartitioned;
  options.rebalance.mode = tsf::mp::RebalanceMode::kDrift;
  options.rebalance.drift = 0.05;
  options.rebalance.period = tu(4);
  options.exec.cost_jitter = 0.2;

  // The oracle signature, computed once on the deterministic backend.
  options.backend = tsf::mp::ExecBackend::kLockstep;
  const auto lockstep = tsf::mp::run(spec, options);
  const auto oracle = signature_of(lockstep);
  if (oracle.served.empty()) {
    std::cerr << "stress: oracle served nothing — spec is broken\n";
    return 1;
  }
  if (!fires_from_several_cores_in_one_epoch(lockstep)) {
    std::cerr << "stress: no boundary delivers fires from two or more cores"
                 " — spec is broken\n";
    return 1;
  }

  options.backend = tsf::mp::ExecBackend::kThreads;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t runs = 0;
  std::uint64_t divergences = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < budget_seconds) {
    const auto threads = signature_of(tsf::mp::run(spec, options));
    ++runs;
    if (!(threads == oracle)) {
      ++divergences;
      std::cerr << "stress: divergence on run " << runs << " (served "
                << threads.served.size() << " vs " << oracle.served.size()
                << ", fingerprint " << threads.fingerprint << " vs "
                << oracle.fingerprint << ")\n";
      if (divergences >= 3) break;  // enough evidence; stop early
    }
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << "tsf_stress_threads: " << runs << " runs in " << elapsed
            << "s, " << divergences << " divergences\n";
  if (runs == 0) {
    std::cerr << "stress: budget too small to complete a single run\n";
    return 1;
  }
  return divergences == 0 ? 0 : 1;
}
