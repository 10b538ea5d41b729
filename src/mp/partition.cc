#include "mp/partition.h"

#include <algorithm>

#include "common/diag.h"

namespace tsf::mp {

namespace {

// Bins are full at 1.0; the epsilon absorbs the tick-to-double rounding of
// utilizations so an exactly-full core (e.g. 1/6 + 2/6 + 3/6) still fits.
constexpr double kEps = 1e-9;

bool fits(double load, double item) { return load + item <= 1.0 + kEps; }

}  // namespace

const char* to_string(PackingStrategy strategy) {
  switch (strategy) {
    case PackingStrategy::kFirstFitDecreasing:
      return "first-fit-decreasing";
    case PackingStrategy::kWorstFitDecreasing:
      return "worst-fit-decreasing";
    case PackingStrategy::kBestFitDecreasing:
      return "best-fit-decreasing";
  }
  TSF_PANIC("unknown packing strategy");
}

double Partition::max_utilization() const {
  double m = 0.0;
  for (const auto& core : cores) m = std::max(m, core.utilization);
  return m;
}

double Partition::total_utilization() const {
  double t = 0.0;
  for (const auto& core : cores) t += core.utilization;
  return t;
}

std::vector<int> Partitioner::pack_items(
    const std::vector<PartitionItem>& items, std::vector<double>& loads) const {
  // Decreasing utilization, ties in item order: (-u, index) keys sort to
  // exactly the order a stable sort on utilization gives.
  std::vector<std::pair<double, std::size_t>> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = {-items[i].utilization, i};
  }
  std::sort(order.begin(), order.end());
  const int cores = static_cast<int>(loads.size());
  std::vector<int> placement(items.size(), -1);
  if (order.empty() || loads.empty()) return placement;
  const double smallest = -order.back().first;
  for (const auto& key : order) {
    // Loads only grow and items only shrink from here on, so once the
    // emptiest bin cannot take the smallest item nothing else fits.
    if (!fits(*std::min_element(loads.begin(), loads.end()), smallest)) break;
    const std::size_t i = key.second;
    const PartitionItem& item = items[i];
    int chosen = -1;
    if (item.affinity >= 0) {
      if (item.affinity < cores &&
          fits(loads[static_cast<std::size_t>(item.affinity)],
               item.utilization)) {
        chosen = item.affinity;
      }
    } else {
      switch (strategy_) {
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

Partition Partitioner::partition(const model::SystemSpec& spec) const {
  Partition out;
  out.strategy = strategy_;
  const int cores = std::max(1, spec.cores);
  out.cores.resize(static_cast<std::size_t>(cores));

  // Server replicas first: they are pinned, one per core, and every bin
  // must carry the replica's utilization before any task is placed.
  const bool has_server = spec.server.policy != model::ServerPolicy::kNone;
  const double server_u = has_server ? spec.server.utilization() : 0.0;
  if (has_server) {
    for (int c = 0; c < cores; ++c) {
      PartitionItem item;
      item.kind = PartitionItem::Kind::kServer;
      item.index = static_cast<std::size_t>(c);
      item.name = "server/c" + std::to_string(c);
      item.utilization = server_u;
      item.affinity = c;
      auto& bin = out.cores[static_cast<std::size_t>(c)];
      if (!fits(bin.utilization, server_u)) {
        out.rejected.push_back({item, "server utilization exceeds one core"});
        continue;
      }
      bin.has_server = true;
      bin.utilization += server_u;
    }
  }

  // Pinned tasks next, in spec order: affinity is a hard constraint, so a
  // pinned task competes for its core before any unpinned task is placed.
  std::vector<PartitionItem> unpinned;
  for (std::size_t i = 0; i < spec.periodic_tasks.size(); ++i) {
    const auto& t = spec.periodic_tasks[i];
    PartitionItem item;
    item.kind = PartitionItem::Kind::kTask;
    item.index = i;
    item.name = t.name;
    item.utilization = t.utilization();
    item.affinity = t.affinity;
    if (t.affinity < 0) {
      unpinned.push_back(std::move(item));
      continue;
    }
    if (t.affinity >= cores) {
      out.rejected.push_back({item, "affinity beyond the last core"});
      continue;
    }
    auto& bin = out.cores[static_cast<std::size_t>(t.affinity)];
    if (!fits(bin.utilization, item.utilization)) {
      out.rejected.push_back({item, "pinned core has no capacity left"});
      continue;
    }
    bin.tasks.push_back(i);
    bin.utilization += item.utilization;
  }

  // Unpinned tasks: the shared packing core (decreasing utilization,
  // stable — spec order breaks ties, which keeps the assignment
  // deterministic across runs).
  std::vector<double> loads;
  loads.reserve(out.cores.size());
  for (const auto& core : out.cores) loads.push_back(core.utilization);
  const std::vector<int> placement = pack_items(unpinned, loads);
  std::vector<std::size_t> rejected_items;
  for (std::size_t i = 0; i < unpinned.size(); ++i) {
    if (placement[i] < 0) {
      rejected_items.push_back(i);
      continue;
    }
    out.cores[static_cast<std::size_t>(placement[i])].tasks.push_back(
        unpinned[i].index);
  }
  // Rejections are reported in packing (decreasing-utilization) order, as
  // they always were — pack_items returns placements in input order, so
  // the packing order is recovered here.
  std::stable_sort(rejected_items.begin(), rejected_items.end(),
                   [&unpinned](std::size_t a, std::size_t b) {
                     return unpinned[a].utilization > unpinned[b].utilization;
                   });
  for (const std::size_t i : rejected_items) {
    out.rejected.push_back({unpinned[i], "does not fit on any core"});
  }
  for (std::size_t c = 0; c < out.cores.size(); ++c) {
    out.cores[c].utilization = loads[c];
  }

  // Keep each core's tasks in spec order: packing order is a heuristic
  // detail, but downstream lowering should see a stable, readable order.
  for (auto& core : out.cores) std::sort(core.tasks.begin(), core.tasks.end());

  // Route aperiodic jobs. Pinned jobs go to their core regardless of
  // whether a server lives there (an unserved job is a result, not an
  // error); unpinned jobs round-robin over the cores that can serve them —
  // walked in job-name order, not declaration order, so the placement (and
  // with it every downstream run) is invariant under reordering the spec's
  // [job] sections. The stored per-core lists stay in spec-index order.
  std::vector<int> serving;
  for (int c = 0; c < cores; ++c) {
    if (out.cores[static_cast<std::size_t>(c)].has_server) serving.push_back(c);
  }
  std::vector<std::size_t> roaming;
  for (std::size_t j = 0; j < spec.aperiodic_jobs.size(); ++j) {
    const int affinity = spec.aperiodic_jobs[j].affinity;
    if (affinity >= 0 && affinity < cores) {
      out.cores[static_cast<std::size_t>(affinity)].jobs.push_back(j);
    } else {
      roaming.push_back(j);
    }
  }
  std::sort(roaming.begin(), roaming.end(),
            [&spec](std::size_t a, std::size_t b) {
              return spec.aperiodic_jobs[a].name < spec.aperiodic_jobs[b].name;
            });
  std::size_t rr = 0;
  for (std::size_t j : roaming) {
    const int target =
        serving.empty()
            ? static_cast<int>(rr % static_cast<std::size_t>(cores))
            : serving[rr % serving.size()];
    ++rr;
    out.cores[static_cast<std::size_t>(target)].jobs.push_back(j);
  }
  for (auto& core : out.cores) std::sort(core.jobs.begin(), core.jobs.end());

  return out;
}

}  // namespace tsf::mp
