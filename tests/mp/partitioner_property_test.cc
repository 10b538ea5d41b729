// Property/fuzz suite for the taskset partitioner: seeded random systems
// pushed through all three packing heuristics, asserting the structural
// invariants every partition must satisfy regardless of workload:
//
//   P1  placements and rejections are a partition of the item set — every
//       task is placed exactly once XOR rejected exactly once;
//   P2  no core's packed utilization exceeds the bin bound;
//   P3  the recorded per-core utilization equals the sum of its members;
//   P4  pinned tasks land on their pinned core (or are rejected);
//   P5  every aperiodic job is routed to exactly one core, and unpinned
//       jobs only ever land on serving cores (when any exist);
//   P6  the partition is a pure function of (spec, strategy);
//   P7  pack_items places exactly as the reference loop below — a stable
//       sort on decreasing utilization, then every item in turn.
#include "mp/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace tsf::mp {
namespace {

using common::Duration;

constexpr double kEps = 1e-6;

model::SystemSpec random_spec(std::uint64_t seed) {
  common::Rng rng(seed);
  model::SystemSpec spec;
  spec.name = "fuzz" + std::to_string(seed);
  spec.cores = static_cast<int>(rng.uniform_i64(1, 8));

  // Sometimes a server, with a random (possibly hefty) replica size.
  if (rng.next_double() < 0.7) {
    spec.server.policy = rng.next_double() < 0.5
                             ? model::ServerPolicy::kPolling
                             : model::ServerPolicy::kDeferrable;
    spec.server.period = Duration::time_units(rng.uniform_i64(4, 12));
    spec.server.capacity = Duration::ticks(static_cast<std::int64_t>(
        spec.server.period.count() * rng.uniform(0.05, 0.6)));
  } else {
    spec.server.policy = model::ServerPolicy::kNone;
  }

  const int tasks = static_cast<int>(rng.uniform_i64(0, 24));
  for (int i = 0; i < tasks; ++i) {
    model::PeriodicTaskSpec t;
    t.name = "t" + std::to_string(i);
    t.period = Duration::time_units(rng.uniform_i64(5, 50));
    // Utilizations from comfortable to impossible (> 1 core), so rejection
    // paths are exercised too.
    t.cost = Duration::ticks(static_cast<std::int64_t>(
        t.period.count() * rng.uniform(0.01, 1.2)));
    if (t.cost.is_zero()) t.cost = Duration::ticks(1);
    t.priority = static_cast<int>(rng.uniform_i64(1, 20));
    if (rng.next_double() < 0.25) {
      // Pin some tasks; occasionally beyond the last core (must reject).
      t.affinity = static_cast<int>(rng.uniform_i64(0, spec.cores));
    }
    spec.periodic_tasks.push_back(t);
  }

  const int jobs = static_cast<int>(rng.uniform_i64(0, 16));
  for (int j = 0; j < jobs; ++j) {
    model::AperiodicJobSpec job;
    job.name = "j" + std::to_string(j);
    job.release = common::TimePoint::origin() +
                  Duration::ticks(rng.uniform_i64(0, 50000));
    job.cost = Duration::ticks(rng.uniform_i64(1, 3000));
    if (rng.next_double() < 0.2) {
      job.affinity = static_cast<int>(rng.uniform_i64(0, spec.cores - 1));
    }
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = common::TimePoint::origin() + Duration::time_units(100);
  return spec;
}

void check_invariants(const model::SystemSpec& spec,
                      const Partition& partition, const std::string& label) {
  ASSERT_EQ(partition.cores.size(), static_cast<std::size_t>(spec.cores))
      << label;

  // P1: every task index appears exactly once across placements+rejections.
  std::set<std::size_t> placed;
  for (const auto& core : partition.cores) {
    for (std::size_t i : core.tasks) {
      EXPECT_TRUE(placed.insert(i).second)
          << label << ": task " << i << " placed twice";
    }
  }
  std::set<std::size_t> rejected;
  for (const auto& r : partition.rejected) {
    if (r.item.kind != PartitionItem::Kind::kTask) continue;
    EXPECT_TRUE(rejected.insert(r.item.index).second)
        << label << ": task " << r.item.index << " rejected twice";
    EXPECT_EQ(placed.count(r.item.index), 0u)
        << label << ": task " << r.item.index << " both placed and rejected";
  }
  EXPECT_EQ(placed.size() + rejected.size(), spec.periodic_tasks.size())
      << label << ": tasks lost or invented";

  const bool has_server = spec.server.policy != model::ServerPolicy::kNone;
  const double server_u = has_server ? spec.server.utilization() : 0.0;

  for (std::size_t c = 0; c < partition.cores.size(); ++c) {
    const auto& core = partition.cores[c];
    // P2: bins are never overfull.
    EXPECT_LE(core.utilization, 1.0 + kEps)
        << label << ": core " << c << " overfull";
    // P3: the recorded utilization is the sum of the members'.
    double sum = core.has_server ? server_u : 0.0;
    for (std::size_t i : core.tasks) {
      sum += spec.periodic_tasks[i].utilization();
      // P4: pinned tasks are on their core.
      const int pin = spec.periodic_tasks[i].affinity;
      if (pin >= 0) {
        EXPECT_EQ(static_cast<std::size_t>(pin), c)
            << label << ": pinned task escaped its core";
      }
    }
    EXPECT_NEAR(core.utilization, sum, kEps) << label << ": core " << c;
    EXPECT_FALSE(core.has_server && !has_server) << label;
  }

  // P5: jobs are routed exactly once; unpinned jobs only to serving cores.
  std::vector<std::size_t> seen(spec.aperiodic_jobs.size(), 0);
  bool any_serving = false;
  for (const auto& core : partition.cores) any_serving |= core.has_server;
  for (std::size_t c = 0; c < partition.cores.size(); ++c) {
    for (std::size_t j : partition.cores[c].jobs) {
      ASSERT_LT(j, seen.size()) << label;
      ++seen[j];
      const int pin = spec.aperiodic_jobs[j].affinity;
      if (pin >= 0 && pin < spec.cores) {
        EXPECT_EQ(static_cast<std::size_t>(pin), c)
            << label << ": pinned job escaped its core";
      } else if (any_serving) {
        EXPECT_TRUE(partition.cores[c].has_server)
            << label << ": unpinned job routed to a serverless core";
      }
    }
  }
  for (std::size_t j = 0; j < seen.size(); ++j) {
    EXPECT_EQ(seen[j], 1u) << label << ": job " << j
                           << " routed " << seen[j] << " times";
  }
}

TEST(PartitionerProperty, InvariantsHoldOnSeededRandomSystems) {
  const PackingStrategy strategies[] = {
      PackingStrategy::kFirstFitDecreasing,
      PackingStrategy::kWorstFitDecreasing,
      PackingStrategy::kBestFitDecreasing,
  };
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto spec = random_spec(seed);
    for (const auto strategy : strategies) {
      const std::string label = "seed " + std::to_string(seed) + ", " +
                                std::string(to_string(strategy));
      const auto partition = Partitioner(strategy).partition(spec);
      check_invariants(spec, partition, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// P6: determinism — the same spec and strategy always produce the same
// assignment, independent of how often or in which order we ask.
TEST(PartitionerProperty, PartitionIsAPureFunctionOfSpecAndStrategy) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto spec = random_spec(seed);
    for (const auto strategy : {PackingStrategy::kFirstFitDecreasing,
                                PackingStrategy::kWorstFitDecreasing,
                                PackingStrategy::kBestFitDecreasing}) {
      const auto a = Partitioner(strategy).partition(spec);
      const auto b = Partitioner(strategy).partition(spec);
      ASSERT_EQ(a.cores.size(), b.cores.size());
      for (std::size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].tasks, b.cores[c].tasks);
        EXPECT_EQ(a.cores[c].jobs, b.cores[c].jobs);
        EXPECT_EQ(a.cores[c].has_server, b.cores[c].has_server);
      }
      ASSERT_EQ(a.rejected.size(), b.rejected.size());
      for (std::size_t r = 0; r < a.rejected.size(); ++r) {
        EXPECT_EQ(a.rejected[r].item.name, b.rejected[r].item.name);
      }
    }
  }
}

// P7's reference: the packing loop as first written — every item placed in
// stable decreasing-utilization order, with no early stop.
std::vector<int> reference_pack(PackingStrategy strategy,
                                const std::vector<PartitionItem>& items,
                                std::vector<double>& loads) {
  const auto fits = [](double load, double u) { return load + u <= 1.0 + 1e-9; };
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&items](std::size_t a, std::size_t b) {
                     return items[a].utilization > items[b].utilization;
                   });
  const int cores = static_cast<int>(loads.size());
  std::vector<int> placement(items.size(), -1);
  for (const std::size_t i : order) {
    const PartitionItem& item = items[i];
    int chosen = -1;
    if (item.affinity >= 0) {
      if (item.affinity < cores &&
          fits(loads[static_cast<std::size_t>(item.affinity)],
               item.utilization)) {
        chosen = item.affinity;
      }
    } else {
      switch (strategy) {
        case PackingStrategy::kFirstFitDecreasing:
          for (int c = 0; c < cores; ++c) {
            if (fits(loads[c], item.utilization)) {
              chosen = c;
              break;
            }
          }
          break;
        case PackingStrategy::kWorstFitDecreasing:
          for (int c = 0; c < cores; ++c) {
            if (!fits(loads[c], item.utilization)) continue;
            if (chosen < 0 || loads[c] < loads[chosen]) chosen = c;
          }
          break;
        case PackingStrategy::kBestFitDecreasing:
          for (int c = 0; c < cores; ++c) {
            if (!fits(loads[c], item.utilization)) continue;
            if (chosen < 0 || loads[c] > loads[chosen]) chosen = c;
          }
          break;
      }
    }
    if (chosen < 0) continue;
    placement[i] = chosen;
    loads[static_cast<std::size_t>(chosen)] += item.utilization;
  }
  return placement;
}

// Random item sets and bins for P7: utilizations drawn from a few values
// (many exact ties) or continuously, zero-utilization items, pinned items
// (some pinned beyond the last bin), and bins from empty through near full
// to over full.
void random_pack_case(common::Rng& rng, std::vector<PartitionItem>* items,
                      std::vector<double>* loads) {
  const int cores = static_cast<int>(rng.uniform_i64(0, 6));
  loads->clear();
  for (int c = 0; c < cores; ++c) {
    const double roll = rng.next_double();
    loads->push_back(roll < 0.2   ? 0.0
                     : roll < 0.4 ? 1.0 - rng.uniform(0.0, 0.05)
                     : roll < 0.5 ? 1.0
                     : roll < 0.6 ? rng.uniform(1.0, 2.0)
                                  : rng.uniform(0.0, 1.0));
  }
  const double tied[] = {0.0, 0.05, 0.1, 0.25, 1.0 / 3.0, 0.5};
  const bool ties = rng.next_double() < 0.5;
  items->assign(static_cast<std::size_t>(rng.uniform_i64(0, 40)), {});
  for (auto& item : *items) {
    const double roll = rng.next_double();
    item.utilization = roll < 0.1 ? 0.0
                       : ties     ? tied[rng.uniform_i64(0, 5)]
                                  : rng.uniform(0.0, 0.7);
    if (rng.next_double() < 0.2) {
      item.affinity = static_cast<int>(rng.uniform_i64(0, cores + 1));
    }
  }
}

TEST(PartitionerProperty, PackItemsMatchesTheReferenceLoop) {
  common::Rng rng(20240);
  for (int round = 0; round < 2000; ++round) {
    std::vector<PartitionItem> items;
    std::vector<double> loads;
    random_pack_case(rng, &items, &loads);
    for (const auto strategy : {PackingStrategy::kFirstFitDecreasing,
                                PackingStrategy::kWorstFitDecreasing,
                                PackingStrategy::kBestFitDecreasing}) {
      std::vector<double> got_loads = loads;
      std::vector<double> want_loads = loads;
      const auto got = Partitioner(strategy).pack_items(items, got_loads);
      const auto want = reference_pack(strategy, items, want_loads);
      ASSERT_EQ(got, want) << "round " << round << ", " << to_string(strategy);
      ASSERT_EQ(got_loads, want_loads)
          << "round " << round << ", " << to_string(strategy);
    }
  }
}

}  // namespace
}  // namespace tsf::mp
