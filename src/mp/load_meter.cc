#include "mp/load_meter.h"

#include <algorithm>

#include "common/diag.h"
#include "mp/channel.h"

namespace tsf::mp {

using common::Duration;
using common::TimePoint;

LoadMeter::LoadMeter(const ChannelFabric& fabric,
                     const model::SystemSpec& spec,
                     const Partition& partition)
    : fabric_(fabric) {
  TSF_ASSERT(partition.cores.size() == fabric_.cores(),
             "partition and fabric disagree on the core count");
  periodic_.reserve(partition.cores.size());
  for (const auto& core : partition.cores) {
    double u = 0.0;
    for (std::size_t i : core.tasks) u += spec.periodic_tasks[i].utilization();
    periodic_.push_back(u);
  }
  samples_.resize(partition.cores.size());
}

void LoadMeter::retain(Duration period) {
  TSF_ASSERT(period > Duration::zero(), "a load window must be positive");
  window_ = std::max(window_, period);
}

void LoadMeter::sample(TimePoint boundary) {
  for (std::size_t c = 0; c < samples_.size(); ++c) {
    const exp::CoreEndpoint* endpoint = fabric_.endpoint(c);
    const Duration released =
        endpoint != nullptr ? endpoint->released_cost() : Duration::zero();
    auto& samples = samples_[c];
    samples.push_back({boundary, released});
    // Drop what no reader's window can reach: the newest sample at least
    // window_ old is the oldest base any measure() may still pick.
    while (samples.size() >= 2 && samples[1].at + window_ <= boundary) {
      samples.pop_front();
    }
  }
}

void LoadMeter::measure(Duration period, std::vector<double>* out) const {
  TSF_ASSERT(period <= window_, "measure over a window the meter does not keep");
  *out = periodic_;
  for (std::size_t c = 0; c < samples_.size(); ++c) {
    const auto& samples = samples_[c];
    if (samples.empty()) continue;
    // The base is the newest sample at least one period old, so the rate
    // spans the full period once the window has warmed up.
    const Sample& last = samples.back();
    std::size_t base = 0;
    while (base + 1 < samples.size() &&
           samples[base + 1].at + period <= last.at) {
      ++base;
    }
    const Duration span = last.at - samples[base].at;
    if (span > Duration::zero()) {
      (*out)[c] += (last.released_cost - samples[base].released_cost).to_tu() /
                   span.to_tu();
    }
  }
}

}  // namespace tsf::mp
