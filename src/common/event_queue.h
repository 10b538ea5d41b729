// A cancellable, deterministic event queue.
//
// Both engines (the discrete-event simulator and the RTSJ-style VM) pop timed
// callbacks from one of these. Ordering is total and deterministic: events
// fire by (time, insertion sequence), so two events scheduled for the same
// instant fire in the order they were scheduled.
//
// Memory discipline: entries are pooled. A fired or purged entry goes back
// on a free list with its generation bumped (which inertly invalidates any
// outstanding Handle), so steady-state re-arming — the VM's replenishment
// timers, periodic releases — schedules onto recycled entries without
// touching the heap. Callbacks whose captures fit std::function's small-
// buffer optimization (a [this] lambda does) complete the zero-allocation
// path; the zero-alloc steady-state test holds the engines to it.
//
// Handles must not outlive the queue (entries are owned by the queue's
// pool; the engines destroy all schedulables before their queue).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"

namespace tsf::common {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Handles allow O(1) logical cancellation (lazy removal from the heap).
  // Generation-checked: a handle to a fired/recycled entry is inert even
  // after the entry is reused for a later event.
  class Handle {
   public:
    Handle() = default;
    // Cancelling an already-fired or empty handle is a no-op.
    TSF_REALTIME void cancel();
    TSF_REALTIME bool active() const;

   private:
    friend class EventQueue;
    struct Entry;
    Handle(Entry* e, std::uint64_t gen) : entry_(e), gen_(gen) {}
    Entry* entry_ = nullptr;
    std::uint64_t gen_ = 0;
  };

  // `taxed` entries run the fire tax immediately before their callback.
  // This is how the VM charges its timer_fire overhead without wrapping
  // every scheduled callback in a capturing closure (the wrapper held a
  // std::function by value — past the small-buffer limit, so it was a heap
  // allocation on every timer re-arm).
  TSF_REALTIME Handle schedule(TimePoint at, Callback cb, bool taxed = false);

  // The tax run before taxed entries' callbacks. One per queue, set once by
  // the owning engine.
  void set_fire_tax(Callback tax) { fire_tax_ = std::move(tax); }

  // True when no live (non-cancelled) events remain.
  TSF_REALTIME bool empty();

  // Time of the earliest live event; TimePoint::never() when empty.
  TSF_REALTIME TimePoint next_time();

  // Pops the earliest live event and runs its callback. Must not be called
  // on an empty queue.
  TSF_REALTIME void pop_and_run();

  std::size_t scheduled_count() const { return scheduled_count_; }

 private:
  struct Handle::Entry {
    TimePoint at;
    std::uint64_t seq = 0;
    // Bumped when the entry is recycled; handles carry the generation they
    // were issued under and go inert on mismatch.
    std::uint64_t generation = 0;
    Callback cb;
    bool cancelled = false;
    bool taxed = false;
  };
  using Entry = Handle::Entry;

  struct Later {
    bool operator()(const Entry* a, const Entry* b) const {
      if (a->at != b->at) return a->at > b->at;
      return a->seq > b->seq;
    }
  };

  // Discards cancelled entries from the top of the heap.
  TSF_REALTIME void purge();
  // Returns a pooled (or fresh) entry ready for reuse.
  Entry* acquire();
  // Invalidates outstanding handles and returns the entry to the pool.
  TSF_NO_ALLOC void recycle(Entry* e);

  // priority_queue with the underlying vector's capacity exposed, so
  // acquire() can keep it >= pool size (see below).
  struct Heap : std::priority_queue<Entry*, std::vector<Entry*>, Later> {
    std::size_t capacity() const { return c.capacity(); }
    void reserve(std::size_t n) { c.reserve(n); }
  };

  Heap heap_;
  // The pool: storage_ owns every entry ever created; free_ holds the
  // recyclable ones. Entries are never destroyed before the queue is.
  std::vector<std::unique_ptr<Entry>> storage_;
  std::vector<Entry*> free_;
  Callback fire_tax_;
  std::uint64_t next_seq_ = 0;
  std::size_t scheduled_count_ = 0;
};

inline void EventQueue::Handle::cancel() {
  if (entry_ != nullptr && entry_->generation == gen_) {
    entry_->cancelled = true;
  }
}

inline bool EventQueue::Handle::active() const {
  return entry_ != nullptr && entry_->generation == gen_ &&
         !entry_->cancelled;
}

}  // namespace tsf::common
