// Online load rebalancing at the epoch boundaries of mp::MultiVm.
//
// The offline partitioner (mp/partition.h) packs by *declared* utilization
// and then trusts the mapping for the whole run. Real traffic drifts: a
// bursty aperiodic stream can offer one core far more work than its server
// replica was sized for while a neighbour idles, and the packer's rejection
// list is simply abandoned even when the live machine turns out to have
// headroom (Pinho 2023 names exactly this static-mapping rigidity as the
// open problem for parallel real-time runtimes).
//
// The Rebalancer closes both gaps *online*, and deterministically: it runs
// inside the MultiVm epoch boundary — after the ChannelFabric drain, the
// scheduling-policy engine and the load meter's sample, while every per-core
// VM is paused — so its decisions depend only on (specs, quantum), never on
// host scheduling.
//
// Per epoch it reads each core's *measured* utilization from the shared
// mp::LoadMeter over a sliding window of `period`: the core's packed
// periodic load plus the offered aperiodic rate. Two triggers, gated by the
// mode:
//
//  * drift (modes kDrift and kAdmit) — when some core's measured
//    utilization exceeds its packed utilization by more than `drift`, the
//    pending unpinned requests of every drifted core, read as one-pass
//    views (CoreEndpoint::stealable_views), are handed back to the
//    *existing* FFD/WFD/BFD packer (Partitioner::pack_items) against bins
//    loaded with the measured utilizations, and each request the packer
//    sends elsewhere is removed by handle (CoreEndpoint::steal) and
//    re-released on its re-packed home (CoreEndpoint::deliver_moved, which
//    keeps it out of that core's measured load), one move at a time:
//    release-preserving like a `semi` steal, recorded exactly once in the
//    channel ledger as a ChannelDelivery::Kind::kRebalance.
//
//  * admission (mode kAdmit) — when the offline rejection list is non-empty
//    and measured headroom has appeared, rejected periodic tasks are
//    retried against the measured bins (each kept a `drift`-sized margin
//    below full) and admitted online on the chosen core
//    (CoreEndpoint::admit_task), released from the admission boundary
//    onward and ledgered as kRebalance with from_core == kNoCore. This is
//    deliberate bandwidth reclamation — admitting into server reservation
//    the workload measurably is not using — and therefore an optimistic,
//    irreversible bet: if the aperiodic stream resumes, the margin plus
//    the drift trigger's backlog migrations absorb it, but the admitted
//    task itself stays. Rejected server replicas are not admittable online
//    (a core without a server has no service machinery to grow one into
//    mid-run) and stay rejected.
//
// Passes are rate-limited to one per `period`, so the window and the
// cooldown share one knob — the spec's `rebalance_period`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "exp/cross_core.h"
#include "model/spec.h"
#include "mp/partition.h"

namespace tsf::mp {

class ChannelFabric;
class LoadMeter;

enum class RebalanceMode {
  kOff,    // PR 1 behaviour: the offline mapping stands for the whole run
  kDrift,  // migrate pending work off cores whose measured load drifted
  kAdmit,  // kDrift + online admission of offline-rejected periodic tasks
};

const char* to_string(RebalanceMode mode);
// "off" | "drift" | "admit"; nullopt otherwise.
std::optional<RebalanceMode> parse_rebalance_mode(const std::string& text);

struct RebalanceConfig {
  RebalanceMode mode = RebalanceMode::kOff;
  // Trigger: measured minus packed utilization beyond which a core is
  // considered drifted ([run] rebalance_drift).
  double drift = 0.25;
  // Sliding measurement window and minimum gap between rebalance passes
  // ([run] rebalance_period).
  common::Duration period = common::Duration::time_units(6);
};

class Rebalancer {
 public:
  // `fabric`, `meter`, `spec` and `partition` must outlive the Rebalancer;
  // the partition must be the one the MultiVm's per-core specs were split
  // from. `strategy` is re-used for the online re-pack, so offline and
  // online placement follow the same heuristic.
  Rebalancer(RebalanceConfig config, ChannelFabric& fabric, LoadMeter& meter,
             const model::SystemSpec& spec, const Partition& partition,
             PackingStrategy strategy);

  // The boundary hook: read the meter, then (rate-limited) migrate / admit.
  // Invoked by MultiVm's boundary step after the meter's sample, while
  // every VM is paused at `boundary`.
  TSF_BARRIER_ONLY
  void on_epoch(common::TimePoint boundary);

  // --- results ---
  std::uint64_t passes() const { return passes_; }
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t admissions() const { return admissions_; }
  // Offline-rejected items still unadmitted (server replicas always are).
  std::size_t still_rejected() const { return rejected_.size(); }
  // The most recent per-core measured utilization sample — the
  // post-rebalance load picture cli/report and the benches print.
  const std::vector<double>& measured_utilization() const {
    return measured_;
  }

 private:
  bool migrate_pass(common::TimePoint boundary);
  bool admit_pass(common::TimePoint boundary);

  RebalanceConfig config_;
  ChannelFabric& fabric_;
  LoadMeter& meter_;
  const model::SystemSpec& spec_;
  Partitioner packer_;
  // The offline packer's verdict per core (tasks + server replica) — the
  // baseline that "drift" is measured against.
  std::vector<double> packed_util_;
  std::vector<double> measured_;
  std::vector<Rejection> rejected_;  // offline rejections not yet admitted
  // migrate_pass scratch, kept so a pass reuses the last one's capacity:
  // the movable requests, the core each one is pending on, and the re-pack's
  // items (one per movable request) and bins (one per core).
  std::vector<exp::PendingView> movable_;
  std::vector<std::size_t> from_;
  std::vector<PartitionItem> items_;
  std::vector<double> bins_;
  common::TimePoint last_pass_ = common::TimePoint::origin();
  std::uint64_t passes_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t admissions_ = 0;
};

}  // namespace tsf::mp
