#include "core/pending_queue.h"

#include "common/diag.h"
#include "core/servable_async_event_handler.h"

namespace tsf::core {

namespace {
rtsj::RelativeTime declared(const Request& r) {
  return r.handler->cost();
}

// Shared take pass over q[from, to): moves the accepted requests to `out`
// and slides the rest down to q[*kept...] in order, in one sweep. Returns
// the declared cost taken (the list-of-lists buckets account it).
rtsj::RelativeTime take_range(Ring<Request>& q, std::size_t from,
                              std::size_t to, std::size_t* kept,
                              const TakeFn& pred, std::vector<Request>* out) {
  rtsj::RelativeTime taken = rtsj::RelativeTime::zero();
  for (std::size_t i = from; i < to; ++i) {
    if (pred(q[i])) {
      taken += declared(q[i]);
      out->push_back(std::move(q[i]));
    } else {
      if (*kept != i) q[*kept] = std::move(q[i]);
      ++*kept;
    }
  }
  return taken;
}

void take_all(Ring<Request>& q, const TakeFn& pred,
              std::vector<Request>* out) {
  std::size_t kept = 0;
  take_range(q, 0, q.size(), &kept, pred, out);
  q.truncate(kept);
}

void append_to(std::vector<Request>* out, const Ring<Request>& q) {
  for (std::size_t i = 0; i < q.size(); ++i) out->push_back(q[i]);
}
}  // namespace

std::unique_ptr<PendingQueue> PendingQueue::make(
    model::QueueDiscipline discipline, rtsj::RelativeTime capacity) {
  switch (discipline) {
    case model::QueueDiscipline::kStrictFifo:
      return std::make_unique<FifoQueue>(/*first_fit=*/false);
    case model::QueueDiscipline::kFifoFirstFit:
      return std::make_unique<FifoQueue>(/*first_fit=*/true);
    case model::QueueDiscipline::kListOfLists:
      return std::make_unique<ListOfListsQueue>(capacity);
  }
  TSF_PANIC("unknown queue discipline");
}

std::optional<Request> FifoQueue::pop_fitting(const FitsFn& fits) {
  // Strict FIFO only ever looks at the head.
  const std::size_t last = first_fit_ || q_.empty() ? q_.size() : 1;
  const std::size_t i = q_.find_first(
      last, [fit = fits](const Request& r) { return fit(declared(r)); });
  if (i == last) return std::nullopt;
  return q_.remove(i);
}

std::vector<Request> FifoQueue::drain() {
  std::vector<Request> out;
  append_to(&out, q_);
  q_.clear();
  return out;
}

void FifoQueue::take(const TakeFn& pred, std::vector<Request>* out) {
  take_all(q_, pred, out);
}

void FifoQueue::visit(const VisitFn& fn) const {
  for (std::size_t i = 0; i < q_.size(); ++i) fn(q_[i]);
}

ListOfListsQueue::ListOfListsQueue(rtsj::RelativeTime capacity)
    : capacity_(capacity) {
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
    buckets_.push_back(Bucket{});
  }
  ++buckets_.back().count;
  buckets_.back().load += c;
  future_.push_back(std::move(r));
}

void ListOfListsQueue::push(Request r) { append(std::move(r)); }

void ListOfListsQueue::requeue(Request r) {
  // The batched dispatcher only requeues requests it popped from the active
  // instance this very activation, so the front of the active list is their
  // original place (requeue happens in reverse pop order).
  active_.push_front(std::move(r));
}

std::optional<Request> ListOfListsQueue::pop_fitting(const FitsFn& fits) {
  if (active_.empty() || !fits(declared(active_[0]))) return std::nullopt;
  return active_.remove(0);
}

bool ListOfListsQueue::empty() const {
  // Unservable requests are deliberately excluded: they must not make an
  // event-driven server wake up for work it can never dispatch.
  return active_.empty() && future_.empty();
}

std::size_t ListOfListsQueue::size() const {
  return active_.size() + future_.size() + unservable_.size();
}

std::vector<Request> ListOfListsQueue::drain() {
  std::vector<Request> out;
  append_to(&out, active_);
  append_to(&out, future_);
  out.insert(out.end(), unservable_.begin(), unservable_.end());
  active_.clear();
  future_.clear();
  buckets_.clear();
  unservable_.clear();
  return out;
}

void ListOfListsQueue::take(const TakeFn& pred, std::vector<Request>* out) {
  take_all(active_, pred, out);
  std::size_t from = 0;
  std::size_t kept = 0;
  std::size_t kept_buckets = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    Bucket bucket = buckets_[b];
    const std::size_t bucket_start = kept;
    bucket.load -= take_range(future_, from, from + bucket.count, &kept,
                              pred, out);
    from += bucket.count;
    bucket.count = kept - bucket_start;
    if (bucket.count > 0) buckets_[kept_buckets++] = bucket;
  }
  future_.truncate(kept);
  buckets_.truncate(kept_buckets);
}

void ListOfListsQueue::visit(const VisitFn& fn) const {
  for (std::size_t i = 0; i < active_.size(); ++i) fn(active_[i]);
  for (std::size_t i = 0; i < future_.size(); ++i) fn(future_[i]);
}

void ListOfListsQueue::begin_instance() {
  // Leftovers of the previous instance (possible only under overhead or
  // under-declared costs) are re-registered like fresh releases.
  while (!active_.empty()) append(active_.remove(0));
  if (buckets_.empty()) return;
  for (std::size_t n = buckets_.remove(0).count; n > 0; --n) {
    active_.push_back(future_.remove(0));
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
