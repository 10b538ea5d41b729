// The one load measurement of the epoch-boundary policies.
//
// The online rebalancer (mp/rebalance.h) and the overload governor
// (mp/overload.h) act on *measured* utilization: each core's periodic load
// plus the aperiodic cost it was offered over a trailing window. MultiVm
// samples the meter once per boundary, after the fabric drain and the
// scheduling policy; each reader then asks for the rate over its own period
// (rebalance_period, overload_period). Online admissions are recorded here,
// so both readers see an admitted task.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "model/spec.h"
#include "mp/partition.h"

namespace tsf::mp {

class ChannelFabric;

class LoadMeter {
 public:
  // `fabric` must outlive the meter; `partition` is the one the per-core
  // specs were split from, and seeds each core's periodic load.
  LoadMeter(const ChannelFabric& fabric, const model::SystemSpec& spec,
            const Partition& partition);

  // Keeps enough samples to answer measure(period). Readers call it once,
  // at construction.
  void retain(common::Duration period);

  // The boundary hook: records each core's released aperiodic cost at
  // `boundary`, net of work moved in by re-releasing deliveries.
  TSF_BARRIER_ONLY
  void sample(common::TimePoint boundary);

  // Each core's measured utilization as of the last sample: periodic load
  // plus the released-cost rate since the newest sample at least `period`
  // old (or the oldest sample, while the window warms up). Before the first
  // sample, the periodic load alone.
  void measure(common::Duration period, std::vector<double>* out) const;

  // An online admission: `core`'s periodic load grows by `utilization`.
  void admit(std::size_t core, double utilization) {
    periodic_[core] += utilization;
  }

 private:
  struct Sample {
    common::TimePoint at;
    common::Duration released_cost;
  };

  const ChannelFabric& fabric_;
  common::Duration window_ = common::Duration::zero();
  // Packed periodic tasks (+ tasks admitted online later). The aperiodic
  // side is measured, not assumed.
  std::vector<double> periodic_;
  std::vector<std::deque<Sample>> samples_;
  // Declared cost moved *into* each core by a re-releasing delivery — a
  // rebalancer kRebalance migration or a semi-policy kSteal, both read from
  // the fabric ledger. The re-release inflates the receiver's released_cost,
  // so the measurement subtracts it: moved backlog is not freshly offered
  // work, and must not manufacture drift (or overload) at its own target.
  // kPool, kMigrate and kFire deliveries are a job's *first* release on any
  // core and count as offered load; so do kRebalance admissions
  // (from_core == kNoCore, a periodic task).
  std::vector<common::Duration> migrated_in_;
  std::map<std::string, common::Duration> declared_;  // job -> declared cost
  std::size_t ledger_seen_ = 0;  // fabric deliveries already accounted
};

}  // namespace tsf::mp
