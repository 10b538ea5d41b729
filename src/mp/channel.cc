#include "mp/channel.h"

#include <algorithm>

#include "common/diag.h"

namespace tsf::mp {

using common::TimePoint;

void Mailbox::take_due(TimePoint boundary, std::vector<Message>* out) {
  // Scan the whole queue, not just a due prefix: post order is core order
  // within an epoch, so with a non-zero channel latency a message posted
  // later in host order can fall due *earlier* in virtual time (core 1
  // fires at vt 5.2 after core 0 fired at vt 5.7). Every due message must
  // leave at this boundary regardless of its queue position.
  auto kept = in_flight_.begin();
  for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
    if (it->due <= boundary) {
      out->push_back(std::move(*it));
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  in_flight_.erase(kept, in_flight_.end());
}

ChannelFabric::ChannelFabric(std::size_t cores, ChannelConfig config)
    : config_(config), mailboxes_(cores), endpoints_(cores, nullptr) {
  TSF_ASSERT(cores > 0, "channel fabric needs at least one core");
}

void ChannelFabric::connect(std::size_t core, exp::CoreEndpoint* endpoint) {
  TSF_ASSERT(core < endpoints_.size(), "endpoint for core beyond the fabric");
  endpoints_[core] = endpoint;
}

exp::CoreEndpoint* ChannelFabric::endpoint(std::size_t core) const {
  TSF_ASSERT(core < endpoints_.size(), "endpoint for core beyond the fabric");
  return endpoints_[core];
}

void ChannelFabric::bind(std::size_t core, const std::string& job) {
  TSF_ASSERT(core < mailboxes_.size(), "binding to a core beyond the fabric");
  const auto [it, inserted] = routes_.emplace(job, core);
  TSF_ASSERT(inserted || it->second == core,
             "job " << job << " bound to two cores");
  // Fires that arrived while the name was only expected now have a home;
  // they are delivered at the first boundary >= their (already computed)
  // due time, exactly as if they had been routable when posted.
  auto waiting = deferred_.find(job);
  if (waiting != deferred_.end()) {
    for (auto& m : waiting->second) mailboxes_[core].push(std::move(m));
    deferred_.erase(waiting);
  }
}

void ChannelFabric::expect(const std::string& job) { expected_.insert(job); }

void ChannelFabric::add_migratable(exp::MigratedJob job, TimePoint release) {
  expect(job.name);
  PendingMigration m;
  m.job = std::move(job);
  m.release = release;
  m.due = due_after(release);
  migrations_.push_back(std::move(m));
}

TimePoint ChannelFabric::due_after(TimePoint posted) const {
  return posted + config_.latency;
}

void ChannelFabric::post_fire(std::size_t from_core, const std::string& job,
                              TimePoint posted) {
  const auto route = routes_.find(job);
  if (route == routes_.end() && expected_.count(job) == 0) {
    // No core hosts this event and none ever will (e.g. its job was
    // rejected by the partitioner): a terminal failed delivery, visible in
    // the report.
    exp::ChannelDelivery d;
    d.kind = exp::ChannelDelivery::Kind::kFire;
    d.job = job;
    d.from_core = from_core;
    d.posted = posted;
    deliveries_.push_back(std::move(d));
    return;
  }
  Mailbox::Message m;
  m.job = job;
  m.from_core = from_core;
  m.posted = posted;
  m.due = due_after(posted);
  if (route == routes_.end()) {
    // Expected but not yet bound (a pool job before its dispatch, a
    // migratable before its delivery): parked until bind() flushes it.
    deferred_[job].push_back(std::move(m));
  } else {
    mailboxes_[route->second].push(std::move(m));
  }
}

std::size_t ChannelFabric::drain(TimePoint boundary) {
  std::size_t delivered = 0;

  // Remote fires: per-core mailboxes in core order, post order within one.
  for (std::size_t core = 0; core < mailboxes_.size(); ++core) {
    due_.clear();
    mailboxes_[core].take_due(boundary, &due_);
    for (auto& m : due_) {
      exp::ChannelDelivery d;
      d.kind = exp::ChannelDelivery::Kind::kFire;
      d.job = std::move(m.job);
      d.from_core = m.from_core;
      d.to_core = core;
      d.posted = m.posted;
      d.delivered = boundary;
      d.ok = endpoints_[core] != nullptr && endpoints_[core]->deliver_fire(d.job);
      delivered += d.ok ? 1 : 0;
      deliveries_.push_back(std::move(d));
    }
  }

  // Migrations: registration order; the load signal is sampled at this
  // boundary, *after* the fires above (a fire delivered now is real queued
  // work the balancer should see).
  for (auto& m : migrations_) {
    if (m.delivered || m.due > boundary) continue;
    const std::size_t chosen = least_loaded_serving_core();
    m.delivered = true;
    exp::ChannelDelivery d;
    d.kind = exp::ChannelDelivery::Kind::kMigrate;
    d.job = m.job.name;
    d.posted = m.release;
    if (chosen == exp::ChannelDelivery::kNoCore) {
      // No serving core anywhere: terminal failure.
      deliveries_.push_back(std::move(d));
      continue;
    }
    endpoints_[chosen]->deliver_migrated(m.job);
    // The migrated job now has a home: later fires can route to it — and
    // bind() flushes any fire that was parked while the name was merely
    // expected.
    bind(chosen, m.job.name);
    d.to_core = chosen;
    d.delivered = boundary;
    d.ok = true;
    ++delivered;
    deliveries_.push_back(std::move(d));
  }
  return delivered;
}

std::size_t ChannelFabric::least_loaded_serving_core() const {
  std::size_t chosen = exp::ChannelDelivery::kNoCore;
  std::size_t best_depth = 0;
  for (std::size_t core = 0; core < endpoints_.size(); ++core) {
    if (endpoints_[core] == nullptr || !endpoints_[core]->serves_aperiodics())
      continue;
    const std::size_t depth = endpoints_[core]->queue_depth();
    if (chosen == exp::ChannelDelivery::kNoCore || depth < best_depth) {
      chosen = core;
      best_depth = depth;
    }
  }
  return chosen;
}

std::size_t ChannelFabric::in_flight() const {
  std::size_t n = 0;
  for (const auto& mailbox : mailboxes_) n += mailbox.size();
  for (const auto& [job, waiting] : deferred_) n += waiting.size();
  for (const auto& m : migrations_) n += m.delivered ? 0 : 1;
  return n;
}

}  // namespace tsf::mp
