// Taskset partitioning for the multiprocessor runtime.
//
// Partitioned fixed-priority scheduling maps every schedulable object to
// exactly one core and then runs an independent uniprocessor scheduler per
// core — the practical route from single-core real-time theory to parallel
// hardware (Pinho 2023, "Real-Time Parallel Programming: State of Play and
// Open Issues"). The mapping itself is utilization-based bin packing with
// the three classic decreasing-order heuristics.
//
// Items are the spec's periodic tasks plus, when the spec has an aperiodic
// server, one server replica per core: replicating the server gives every
// core local aperiodic service capacity, which is what lets served-event
// throughput scale with the core count (see bench/mp_scaling.cc). Server
// replicas are pinned items — they still flow through the packer so each
// bin's load accounts for them, and a server that doesn't fit is reported
// in the rejection list like any other item.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model/spec.h"

namespace tsf::mp {

enum class PackingStrategy {
  kFirstFitDecreasing,  // first core with room (minimises fragmentation ops)
  kWorstFitDecreasing,  // emptiest core (balances load across cores)
  kBestFitDecreasing,   // fullest core with room (packs tightly, frees cores)
};

const char* to_string(PackingStrategy strategy);

// One packed item, for diagnostics and the rejection list.
struct PartitionItem {
  enum class Kind { kTask, kServer };
  Kind kind = Kind::kTask;
  // Index into spec.periodic_tasks for tasks; core id for server replicas.
  std::size_t index = 0;
  std::string name;
  double utilization = 0.0;
  int affinity = -1;
};

struct Rejection {
  PartitionItem item;
  std::string reason;
};

struct CoreAssignment {
  // Indices into spec.periodic_tasks, in packing order.
  std::vector<std::size_t> tasks;
  // Whether this core hosts a replica of the spec's server.
  bool has_server = false;
  // Indices into spec.aperiodic_jobs routed to this core.
  std::vector<std::size_t> jobs;
  // Packed utilization: server replica + assigned tasks.
  double utilization = 0.0;
};

struct Partition {
  std::vector<CoreAssignment> cores;
  std::vector<Rejection> rejected;
  PackingStrategy strategy = PackingStrategy::kFirstFitDecreasing;

  bool complete() const { return rejected.empty(); }
  double max_utilization() const;
  double total_utilization() const;
};

class Partitioner {
 public:
  explicit Partitioner(
      PackingStrategy strategy = PackingStrategy::kFirstFitDecreasing)
      : strategy_(strategy) {}

  // Packs spec.periodic_tasks (and the per-core server replicas) onto
  // spec.cores bins of capacity 1.0, then routes aperiodic jobs: a job with
  // affinity k goes to core k, the rest round-robin over the serving cores.
  // Deterministic: depends only on the spec contents and the strategy.
  Partition partition(const model::SystemSpec& spec) const;

  // The packing core shared by partition() and the online rebalancer
  // (mp/rebalance.h): places `items` in decreasing-utilization order
  // (stable, so the caller's item order breaks ties) onto bins of capacity
  // 1.0 already carrying `loads`, updating the loads in place. Returns the
  // chosen bin per item in the *original* item order; -1 marks an item that
  // fits nowhere. An item with affinity >= 0 is only ever placed on that
  // bin. A bin can be excluded by handing it a load >= 1.0.
  //
  // Placements are found by selection, not by sorting: since loads only
  // grow, the next item that order places is the largest one that fits
  // now, so each of the first ceil(log2 n) + 1 placements is one pass that
  // also drops every item that no longer fits. Whatever is still left
  // after those is sorted and placed in turn. Placing k of n items costs
  // O(n * k) while k <= ceil(log2 n) + 1, and O(n log n) beyond.
  std::vector<int> pack_items(const std::vector<PartitionItem>& items,
                              std::vector<double>& loads) const;

  PackingStrategy strategy() const { return strategy_; }

 private:
  PackingStrategy strategy_;
};

}  // namespace tsf::mp
