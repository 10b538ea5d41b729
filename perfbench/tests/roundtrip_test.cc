// Round-trip self-test of the benchmark's front-end inputs: for the default
// and the held-out seed, the spec written as a .tsf file and parsed back by
// cli::load_spec_file equals the generated spec field for field — fires,
// triggered, affinity, deadline and value included — and the [run] section
// lands in the run configuration the workload expects.
//
//   perfbench_roundtrip_test        # exit 0 on success, 1 with a report
#include <iostream>
#include <string>

#include "cli/spec_file.h"
#include "inputs.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

void round_trip(const std::string& label, const perfbench::FileInput& in) {
  const auto parsed = tsf::cli::parse_spec(in.text);
  for (const auto& e : parsed.errors) expect(false, label + ": " + e);
  if (!parsed.ok()) return;
  for (const auto& d : perfbench::spec_differences(in.spec,
                                                   parsed.config.spec)) {
    expect(false, label + ": " + d);
  }
  // A mutated copy must be caught, so the comparison is not vacuous.
  auto mutated = parsed.config.spec;
  if (!mutated.aperiodic_jobs.empty()) {
    mutated.aperiodic_jobs.back().value += 1.0;
    expect(!perfbench::spec_differences(in.spec, mutated).empty(),
           label + ": value mutation not detected");
  }
}

}  // namespace

int main() {
  using tsf::cli::RunMode;
  for (const auto seed : {perfbench::kDefaultSeed, perfbench::kHeldOutSeed}) {
    const std::string s = " seed " + std::to_string(seed);

    const auto uni = perfbench::make_uni_stream(seed);
    round_trip("uni_stream" + s, uni);
    const auto uni_cfg = tsf::cli::parse_spec(uni.text).config;
    expect(uni_cfg.mode == RunMode::kBoth, "uni_stream" + s + ": mode");
    expect(uni_cfg.exec_options.cost_jitter > 0.0,
           "uni_stream" + s + ": paper overheads");
    expect(uni.spec.aperiodic_jobs.size() > 25000,
           "uni_stream" + s + ": job count");

    const auto storm = perfbench::make_storm_quad(seed);
    round_trip("storm_quad" + s, storm);
    const auto storm_cfg = tsf::cli::parse_spec(storm.text).config;
    expect(storm_cfg.spec.cores == perfbench::kStormCores,
           "storm_quad" + s + ": cores");
    expect(storm_cfg.policy == tsf::mp::SchedPolicy::kSemiPartitioned,
           "storm_quad" + s + ": policy");
    expect(storm_cfg.rebalance.mode == tsf::mp::RebalanceMode::kDrift,
           "storm_quad" + s + ": rebalance");
    expect(storm_cfg.exec_options.overload.mode ==
               tsf::exp::OverloadMode::kShed,
           "storm_quad" + s + ": overload");
    expect(storm_cfg.quantum == tsf::common::Duration::ticks(500),
           "storm_quad" + s + ": quantum");
    expect(storm_cfg.partition == tsf::mp::PackingStrategy::kWorstFitDecreasing,
           "storm_quad" + s + ": partition");
    std::size_t fires = 0;
    std::size_t triggered = 0;
    for (const auto& j : storm.spec.aperiodic_jobs) {
      fires += !j.fires.empty();
      triggered += j.triggered;
    }
    expect(fires > 0 && fires == triggered,
           "storm_quad" + s + ": fire chains");

    expect(perfbench::make_paper_grid(seed).size() == 24,
           "paper_grid" + s + ": 24 cells");
  }
  if (failures > 0) {
    std::cerr << failures << " round-trip check(s) failed\n";
    return 1;
  }
  std::cout << "round trip ok: uni_stream, storm_quad, paper_grid at seeds "
            << perfbench::kDefaultSeed << " and " << perfbench::kHeldOutSeed
            << '\n';
  return 0;
}
