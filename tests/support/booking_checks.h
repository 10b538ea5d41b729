// The multi-core booking rule, checked on a run's per-core results.
//
// A pending request leaves a core either by a move (a steal or a rebalance:
// the core books nothing for it and another core re-releases it) or with
// its outcome booked on that core. So each (job, release) is booked by one
// core at most — the rule that lets mp::merge_results concatenate the
// per-core outcomes without reconciling them.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "model/run_result.h"

namespace tsf::testing {

// Describes the first (job, release) two cores book, or returns an empty
// string when the rule holds.
inline std::string find_cross_core_booking(
    const std::vector<model::RunResult>& per_core) {
  std::map<std::pair<std::string, common::TimePoint>, std::size_t> booked_by;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (const auto& outcome : per_core[c].jobs) {
      const auto [it, fresh] =
          booked_by.emplace(std::make_pair(outcome.name, outcome.release), c);
      if (!fresh && it->second != c) {
        return outcome.name + " released at " +
               common::to_string(outcome.release) + " is booked by cores " +
               std::to_string(it->second) + " and " + std::to_string(c);
      }
    }
  }
  return {};
}

}  // namespace tsf::testing
