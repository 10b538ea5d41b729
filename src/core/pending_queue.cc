#include "core/pending_queue.h"

#include <algorithm>

#include "common/diag.h"
#include "core/servable_async_event_handler.h"

namespace tsf::core {

namespace {
rtsj::RelativeTime declared(const Request& r) {
  return r.handler->cost();
}

// Shared take pass over one deque: moves the accepted requests to `out`
// and closes the gaps behind them, in one in-order sweep. Returns the
// declared cost taken (the list-of-lists buckets account it).
rtsj::RelativeTime take_from(RequestDeque& q, const TakeFn& pred,
                             std::vector<Request>* out) {
  rtsj::RelativeTime taken = rtsj::RelativeTime::zero();
  auto kept = q.begin();
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (pred(*it)) {
      taken += declared(*it);
      out->push_back(std::move(*it));
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  q.erase(kept, q.end());
  return taken;
}
}  // namespace

std::unique_ptr<PendingQueue> PendingQueue::make(
    model::QueueDiscipline discipline, rtsj::RelativeTime capacity,
    common::Arena* arena) {
  switch (discipline) {
    case model::QueueDiscipline::kStrictFifo:
      return std::make_unique<FifoQueue>(/*first_fit=*/false, arena);
    case model::QueueDiscipline::kFifoFirstFit:
      return std::make_unique<FifoQueue>(/*first_fit=*/true, arena);
    case model::QueueDiscipline::kListOfLists:
      return std::make_unique<ListOfListsQueue>(capacity, arena);
  }
  TSF_PANIC("unknown queue discipline");
}

std::optional<Request> FifoQueue::pop_fitting(const FitsFn& fits) {
  // Strict FIFO only ever looks at the head.
  const auto last = first_fit_ || q_.empty() ? q_.end() : q_.begin() + 1;
  for (auto it = q_.begin(); it != last; ++it) {
    if (fits(declared(*it))) {
      Request r = std::move(*it);
      q_.erase(it);
      return r;
    }
  }
  return std::nullopt;
}

std::vector<Request> FifoQueue::drain() {
  std::vector<Request> out(q_.begin(), q_.end());
  q_.clear();
  return out;
}

void FifoQueue::take(const TakeFn& pred, std::vector<Request>* out) {
  take_from(q_, pred, out);
}

void FifoQueue::visit(const VisitFn& fn) const {
  for (const auto& r : q_) fn(r);
}

ListOfListsQueue::ListOfListsQueue(rtsj::RelativeTime capacity,
                                   common::Arena* arena)
    : capacity_(capacity),
      alloc_(arena),
      active_(alloc_),
      buckets_(common::ArenaAllocator<Bucket>(arena)) {
  TSF_ASSERT(capacity_ > rtsj::RelativeTime::zero(),
             "list-of-lists queue needs a positive capacity");
}

void ListOfListsQueue::append(Request r) {
  // O(1): only the last open instance is considered, so registration cost
  // does not grow with the backlog and FIFO order is never violated.
  const rtsj::RelativeTime c = declared(r);
  if (c > capacity_) {
    unservable_.push_back(std::move(r));
    return;
  }
  if (buckets_.empty() || buckets_.back().load + c > capacity_) {
    buckets_.emplace_back(alloc_);
  }
  buckets_.back().load += c;
  buckets_.back().items.push_back(std::move(r));
}

void ListOfListsQueue::push(Request r) { append(std::move(r)); }

void ListOfListsQueue::requeue(Request r) {
  // The batched dispatcher only requeues requests it popped from the active
  // instance this very activation, so the front of the active list is their
  // original place (requeue happens in reverse pop order).
  active_.push_front(std::move(r));
}

std::optional<Request> ListOfListsQueue::pop_fitting(const FitsFn& fits) {
  if (active_.empty() || !fits(declared(active_.front()))) return std::nullopt;
  Request r = std::move(active_.front());
  active_.pop_front();
  return r;
}

bool ListOfListsQueue::empty() const {
  // Unservable requests are deliberately excluded: they must not make an
  // event-driven server wake up for work it can never dispatch.
  return active_.empty() && buckets_.empty();
}

std::size_t ListOfListsQueue::size() const {
  std::size_t n = active_.size() + unservable_.size();
  for (const auto& b : buckets_) n += b.items.size();
  return n;
}

std::vector<Request> ListOfListsQueue::drain() {
  std::vector<Request> out(active_.begin(), active_.end());
  active_.clear();
  for (auto& b : buckets_) {
    out.insert(out.end(), b.items.begin(), b.items.end());
  }
  buckets_.clear();
  out.insert(out.end(), unservable_.begin(), unservable_.end());
  unservable_.clear();
  return out;
}

void ListOfListsQueue::take(const TakeFn& pred, std::vector<Request>* out) {
  take_from(active_, pred, out);
  for (auto bucket = buckets_.begin(); bucket != buckets_.end();) {
    bucket->load -= take_from(bucket->items, pred, out);
    bucket = bucket->items.empty() ? buckets_.erase(bucket) : bucket + 1;
  }
}

void ListOfListsQueue::visit(const VisitFn& fn) const {
  for (const auto& r : active_) fn(r);
  for (const auto& bucket : buckets_) {
    for (const auto& r : bucket.items) fn(r);
  }
}

void ListOfListsQueue::begin_instance() {
  // Leftovers of the previous instance (possible only under overhead or
  // under-declared costs) are re-registered like fresh releases.
  RequestDeque leftovers(alloc_);
  leftovers.swap(active_);
  for (auto& r : leftovers) append(std::move(r));
  if (!buckets_.empty()) {
    active_ = std::move(buckets_.front().items);
    buckets_.pop_front();
  }
}

ListOfListsQueue::Placement ListOfListsQueue::placement_for(
    rtsj::RelativeTime declared_cost) const {
  // O(1): a new release can only land in the last open instance or a fresh
  // one (mirrors append()).
  Placement p;
  if (!buckets_.empty() &&
      buckets_.back().load + declared_cost <= capacity_) {
    p.instance_offset = static_cast<std::int64_t>(buckets_.size()) - 1;
    p.cumulative_before = buckets_.back().load;
    return p;
  }
  p.instance_offset = static_cast<std::int64_t>(buckets_.size());
  p.cumulative_before = rtsj::RelativeTime::zero();
  return p;
}

}  // namespace tsf::core
