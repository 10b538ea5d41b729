// Pending-event queues for task servers.
//
// The paper uses a FIFO list whose chooseNextEvent() returns "the first
// handler in the list which has a cost lower than the remaining capacity"
// (§4.1) — our kFifoFirstFit. kStrictFifo is the head-blocking variant the
// theoretical servers use, and kListOfLists is the §7 proposal: handlers are
// packed into per-server-instance buckets so that the response time of a new
// release is computable in constant time (equation (5)).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/function_ref.h"
#include "model/spec.h"
#include "rtsj/time.h"

namespace tsf::core {

class ServableAsyncEventHandler;

// One release of a servable event bound to a handler.
struct Request {
  ServableAsyncEventHandler* handler = nullptr;
  rtsj::AbsoluteTime release;
  std::uint64_t seq = 0;  // global release order
};

// Predicate deciding whether a request with the given declared cost can be
// dispatched right now (the servers encode their capacity rules here).
// Non-owning (common::FunctionRef): the servers rebuild these per
// activation on the hot path, so binding must never allocate — pass
// lambdas in the call expression or keep the lambda alive alongside.
using FitsFn = common::FunctionRef<bool(rtsj::RelativeTime declared_cost)>;

// Which pending requests take() removes (the epoch-boundary passes select
// by release seq, the request's handle within its server).
using TakeFn = common::FunctionRef<bool(const Request&)>;
using VisitFn = common::FunctionRef<void(const Request&)>;

// A queue over one power-of-two circular buffer: O(1) at both ends,
// indexed in queue order. It doubles when full and never shrinks, so a queue
// allocates only when it reaches a depth it never held before — the
// steady-state serve loop stays off the heap once the backlog's high-water
// mark has been seen.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask()];
  }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }
  // Index of the first of the first n (<= size()) elements `pred` accepts,
  // or n. Walks the at most two contiguous runs of slots through locals,
  // so an opaque `pred` costs no reload of the ring's bookkeeping.
  template <typename Pred>
  std::size_t find_first(std::size_t n, Pred pred) const {
    const T* const base = slots_.data();
    const T* const front = base + head_;
    const std::size_t run = std::min(n, slots_.size() - head_);
    for (const T* p = front; p != front + run; ++p) {
      if (pred(*p)) return static_cast<std::size_t>(p - front);
    }
    for (const T* p = base; p != base + (n - run); ++p) {
      if (pred(*p)) return run + static_cast<std::size_t>(p - base);
    }
    return n;
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    (*this)[size_++] = std::move(value);
  }
  void push_front(T value) {
    if (size_ == slots_.size()) grow();
    head_ = (head_ + mask()) & mask();
    ++size_;
    (*this)[0] = std::move(value);
  }
  // Removes and returns the i-th element; the elements on its shorter side
  // move one slot to close the gap.
  T remove(std::size_t i) {
    T out = std::move((*this)[i]);
    if (i < size_ / 2) {
      for (; i > 0; --i) (*this)[i] = std::move((*this)[i - 1]);
      head_ = (head_ + 1) & mask();
    } else {
      for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    }
    --size_;
    return out;
  }
  // Keeps the first n elements.
  void truncate(std::size_t n) { size_ = n; }
  void clear() { head_ = size_ = 0; }

 private:
  std::size_t mask() const { return slots_.size() - 1; }
  void grow() {
    std::vector<T> next(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class PendingQueue {
 public:
  virtual ~PendingQueue() = default;

  // push / requeue / pop_fitting / begin_instance run inside the serve
  // loop (every release, every activation): TSF_REALTIME — ring storage
  // keeps the steady state off the heap. drain / take only run at epoch
  // boundaries or end-of-run: TSF_BARRIER_ONLY.
  TSF_REALTIME
  virtual void push(Request r) = 0;
  // Returns a popped-but-unserved request to the *front* of the service
  // order (the batched dispatcher's interrupted-tail path: requests behind
  // an interrupted batch member never started and must not lose their
  // place). Call in reverse pop order to restore the original sequence.
  // Default: plain push (disciplines without a meaningful front).
  TSF_REALTIME
  virtual void requeue(Request r) { push(std::move(r)); }
  // Removes and returns the next dispatchable request, or nullopt when no
  // queued request satisfies `fits`.
  TSF_REALTIME
  virtual std::optional<Request> pop_fitting(const FitsFn& fits) = 0;
  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
  // Removes and returns everything still pending (end-of-run accounting).
  TSF_BARRIER_ONLY
  virtual std::vector<Request> drain() = 0;
  // Removes every request `pred` accepts, appending them to `out` in queue
  // order, in one in-order pass; the rest keep their order. This is how
  // work leaves a queue at an epoch boundary: a steal, a rebalance move or
  // a governor shed, each naming its requests by handle. Only pending
  // (never running) requests live in the queue, so a taken job can never
  // be mid-dispatch. A request can, however, be mid-*bind*: released at
  // this very instant, with the home server's wake-up for it still in
  // flight — TaskServer::take_pending guards against that before
  // delegating here.
  TSF_BARRIER_ONLY
  virtual void take(const TakeFn& pred, std::vector<Request>* out) = 0;
  // Read-only walk over every request take() could reach, in queue order
  // (the list-of-lists queue skips its parked unservable requests, exactly
  // like take does). The boundary passes view queues through this before
  // deciding what — if anything — to remove, so nothing is ever popped and
  // re-pushed just to be put back.
  virtual void visit(const VisitFn& fn) const = 0;
  // Called by instance-based servers at each activation; only the
  // list-of-lists queue reacts (it rotates to the next instance bucket).
  TSF_REALTIME
  virtual void begin_instance() {}

  static std::unique_ptr<PendingQueue> make(model::QueueDiscipline discipline,
                                            rtsj::RelativeTime capacity);
};

// Release order, in one of two flavours that differ only in pop_fitting:
// strict FIFO serves the head or nothing (an oversized head blocks
// everything); first-fit is the paper's chooseNextEvent(), the first
// request in release order that fits.
class FifoQueue : public PendingQueue {
 public:
  explicit FifoQueue(bool first_fit) : first_fit_(first_fit) {}
  TSF_REALTIME
  void push(Request r) override { q_.push_back(std::move(r)); }
  TSF_REALTIME
  void requeue(Request r) override { q_.push_front(std::move(r)); }
  TSF_REALTIME
  std::optional<Request> pop_fitting(const FitsFn& fits) override;
  bool empty() const override { return q_.empty(); }
  std::size_t size() const override { return q_.size(); }
  TSF_BARRIER_ONLY
  std::vector<Request> drain() override;
  TSF_BARRIER_ONLY
  void take(const TakeFn& pred, std::vector<Request>* out) override;
  void visit(const VisitFn& fn) const override;

 private:
  Ring<Request> q_;
  bool first_fit_;
};

// §7: a list of lists of handlers, each inner list holding at most one
// server instance worth of declared cost, plus the parallel list of
// cumulative costs. Releases append to the last open instance (or open a
// new one), so registration and the placement query are O(1) — the paper's
// constant-time response-time claim — and global FIFO order is preserved
// (a later release never jumps into an earlier instance). The bucket index
// and the cumulative cost before a request give its response time via
// equation (5) (see ResponseTimePredictor).
class ListOfListsQueue : public PendingQueue {
 public:
  explicit ListOfListsQueue(rtsj::RelativeTime capacity);

  TSF_REALTIME
  void push(Request r) override;
  // Back to the front of the active instance (batched-dispatch tail).
  TSF_REALTIME
  void requeue(Request r) override;
  // Serves only the active instance's list (detached at begin_instance).
  TSF_REALTIME
  std::optional<Request> pop_fitting(const FitsFn& fits) override;
  bool empty() const override;
  std::size_t size() const override;
  TSF_BARRIER_ONLY
  std::vector<Request> drain() override;
  // Scans the active list and every future bucket: a bucket's load falls by
  // what is taken (an underfull bucket is harmless) and a bucket emptied is
  // dropped. Unservable requests are never taken — another core's server
  // replica has the same capacity, so they could not be served there either.
  TSF_BARRIER_ONLY
  void take(const TakeFn& pred, std::vector<Request>* out) override;
  // Active list, then every future bucket; parked unservable requests are
  // skipped (they are outside take's reach too).
  void visit(const VisitFn& fn) const override;
  // Rotates: unserved leftovers of the active list are re-registered, then
  // the first future bucket's requests move to the active list.
  TSF_REALTIME
  void begin_instance() override;

  // --- the §7 prediction interface ---
  // Where would a request with this declared cost land, were it released
  // now? Returns {instances_from_next_activation, cumulative_cost_before}.
  struct Placement {
    std::int64_t instance_offset = 0;
    rtsj::RelativeTime cumulative_before = rtsj::RelativeTime::zero();
  };
  Placement placement_for(rtsj::RelativeTime declared_cost) const;

  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  // One future instance: the next `count` requests of future_.
  struct Bucket {
    std::size_t count = 0;
    rtsj::RelativeTime load = rtsj::RelativeTime::zero();
  };

  void append(Request r);

  rtsj::RelativeTime capacity_;
  Ring<Request> active_;  // the instance currently being served
  // Every future instance's requests, back to back in instance order, and
  // the instances themselves.
  Ring<Request> future_;
  Ring<Bucket> buckets_;
  // Requests whose declared cost exceeds the capacity violate the
  // framework's §4 constraint and can never be served; they are parked here
  // (reported by size()/drain()) instead of wasting a whole instance.
  std::vector<Request> unservable_;
};

}  // namespace tsf::core
