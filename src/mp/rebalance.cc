#include "mp/rebalance.h"

#include <algorithm>
#include <utility>

#include "common/diag.h"
#include "mp/channel.h"
#include "mp/load_meter.h"

namespace tsf::mp {

using common::Duration;
using common::TimePoint;

const char* to_string(RebalanceMode mode) {
  switch (mode) {
    case RebalanceMode::kOff:
      return "off";
    case RebalanceMode::kDrift:
      return "drift";
    case RebalanceMode::kAdmit:
      return "admit";
  }
  return "?";
}

std::optional<RebalanceMode> parse_rebalance_mode(const std::string& text) {
  if (text == "off") return RebalanceMode::kOff;
  if (text == "drift") return RebalanceMode::kDrift;
  if (text == "admit") return RebalanceMode::kAdmit;
  return std::nullopt;
}

Rebalancer::Rebalancer(RebalanceConfig config, ChannelFabric& fabric,
                       LoadMeter& meter, const model::SystemSpec& spec,
                       const Partition& partition, PackingStrategy strategy)
    : config_(std::move(config)),
      fabric_(fabric),
      meter_(meter),
      spec_(spec),
      packer_(strategy),
      rejected_(partition.rejected) {
  TSF_ASSERT(config_.mode != RebalanceMode::kOff,
             "a Rebalancer in mode 'off' should not be constructed");
  TSF_ASSERT(config_.drift > 0.0, "rebalance_drift must be positive");
  TSF_ASSERT(config_.period > Duration::zero(),
             "rebalance_period must be positive");
  packed_util_.reserve(partition.cores.size());
  for (const auto& core : partition.cores) {
    packed_util_.push_back(core.utilization);
  }
  meter_.retain(config_.period);
  meter_.measure(config_.period, &measured_);
}

bool Rebalancer::migrate_pass(TimePoint boundary) {
  double max_drift = 0.0;
  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    max_drift = std::max(max_drift, measured_[c] - packed_util_[c]);
  }
  if (max_drift <= config_.drift) return false;

  // View (read-only) the movable backlog of every drifted core: the
  // stealable pending requests minus one — the highest-priority request
  // stays local, the same keep-local-work rule the semi stealer's victims
  // follow. Boundary-coincident (mid-bind) releases are outside the view
  // by construction.
  movable_.clear();
  from_.clear();
  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    if (measured_[c] - packed_util_[c] <= config_.drift) continue;
    exp::CoreEndpoint* victim = fabric_.endpoint(c);
    if (victim == nullptr) continue;
    const std::size_t first = movable_.size();
    victim->stealable_views(&movable_);
    const std::size_t count = movable_.size() - first;
    if (count > 0 && count >= victim->queue_depth()) {
      const std::size_t keep =
          first + exp::first_scheduled({movable_.data() + first, count});
      movable_.erase(movable_.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    from_.resize(movable_.size(), c);
  }
  if (movable_.empty()) return true;  // triggered; nothing was movable

  // Re-run the offline packer on live state: bins carry the *measured*
  // utilization, a pending request weighs its declared cost per server
  // period (the unit server replicas are sized in), and cores without a
  // server replica are excluded via an over-capacity load.
  bins_.clear();
  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    const exp::CoreEndpoint* endpoint = fabric_.endpoint(c);
    const bool serving = endpoint != nullptr && endpoint->serves_aperiodics();
    bins_.push_back(serving ? measured_[c] : 2.0);
  }
  const double service_period =
      spec_.server.period.is_zero() ? 1.0 : spec_.server.period.to_tu();
  items_.resize(movable_.size());
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    items_[i].utilization = movable_[i].declared_cost.to_tu() / service_period;
  }
  const std::vector<int> placement = packer_.pack_items(items_, bins_);

  // Only the requests the packer sent to a *different* core are removed
  // from their queues; everything else was never touched — no phantom
  // re-release, no queue-order churn for work that stays. Each move takes
  // and then delivers before the next one, so a core that is both a source
  // and a target sees its records in movable order.
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    if (placement[i] < 0) continue;  // fits nowhere better: stays put
    const auto target = static_cast<std::size_t>(placement[i]);
    if (target == from_[i]) continue;  // re-packed home: stays put
    auto stolen = fabric_.endpoint(from_[i])->steal(movable_[i].handle);
    if (!stolen.has_value()) continue;  // gone (defensive; VMs paused)
    // deliver_moved keeps the move out of the target's released_cost, so
    // the meter never reads moved backlog as load offered to its target.
    fabric_.endpoint(target)->deliver_moved(*stolen);
    exp::ChannelDelivery d;
    d.kind = exp::ChannelDelivery::Kind::kRebalance;
    d.job = stolen->job.name;
    d.from_core = from_[i];
    d.to_core = target;
    d.posted = stolen->release;
    d.delivered = boundary;
    d.ok = true;
    fabric_.record(std::move(d));
    ++migrations_;
  }
  return true;
}

bool Rebalancer::admit_pass(TimePoint boundary) {
  // Retry every rejected task in ONE pack_items call, so online admission
  // follows the same decreasing-utilization discipline as the offline
  // packer (admitting spec-order-first could let a small task squat on the
  // headroom a larger one needed). Server replicas cannot be admitted
  // online — a core that was split without a server has no service
  // machinery to grow one into mid-run — and stay rejected.
  std::vector<std::size_t> retried;  // indices into rejected_
  std::vector<PartitionItem> items;
  for (std::size_t i = 0; i < rejected_.size(); ++i) {
    if (rejected_[i].item.kind != PartitionItem::Kind::kTask) continue;
    retried.push_back(i);
    items.push_back(rejected_[i].item);
  }
  if (items.empty()) return false;

  // Admission bins are the *measured* utilizations — this is deliberate
  // bandwidth reclamation: an offline-rejected task is admitted into
  // server reservation the workload is measurably not using. It is an
  // optimistic, irreversible bet, so each bin keeps a `drift`-sized
  // safety margin below full: if the aperiodic stream later resumes, the
  // core has that much room before the drift trigger starts migrating its
  // backlog away (the reversible side self-corrects; the admitted task
  // stays and is visible in the admission ledger and report).
  std::vector<double> bins;
  bins.reserve(measured_.size());
  for (const double u : measured_) bins.push_back(u + config_.drift);
  const std::vector<int> placement = packer_.pack_items(items, bins);

  bool any = false;
  std::vector<bool> admitted(rejected_.size(), false);
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (placement[k] < 0) continue;
    const auto target = static_cast<std::size_t>(placement[k]);
    const Rejection& rejection = rejected_[retried[k]];
    model::PeriodicTaskSpec task = spec_.periodic_tasks[rejection.item.index];
    task.affinity = placement[k];
    task.start = boundary;  // releases begin at the admission instant
    if (!fabric_.endpoint(target)->admit_task(task)) continue;
    // The admitted task is part of the mapping now: the meter (and so the
    // overload governor), the measured and the packed picture all carry
    // it, so it creates no phantom drift.
    meter_.admit(target, rejection.item.utilization);
    packed_util_[target] += rejection.item.utilization;
    measured_[target] += rejection.item.utilization;
    exp::ChannelDelivery d;
    d.kind = exp::ChannelDelivery::Kind::kRebalance;
    d.job = task.name;
    d.to_core = target;
    d.posted = boundary;
    d.delivered = boundary;
    d.ok = true;
    fabric_.record(std::move(d));
    ++admissions_;
    admitted[retried[k]] = true;
    any = true;
  }
  if (any) {
    std::vector<Rejection> remaining;
    for (std::size_t i = 0; i < rejected_.size(); ++i) {
      if (!admitted[i]) remaining.push_back(rejected_[i]);
    }
    rejected_ = std::move(remaining);
  }
  return any;
}

void Rebalancer::on_epoch(TimePoint boundary) {
  meter_.measure(config_.period, &measured_);
  if (boundary - last_pass_ < config_.period) return;
  bool ran = migrate_pass(boundary);
  if (config_.mode == RebalanceMode::kAdmit && !rejected_.empty()) {
    ran = admit_pass(boundary) || ran;
  }
  if (ran) {
    ++passes_;
    last_pass_ = boundary;
  }
}

}  // namespace tsf::mp
