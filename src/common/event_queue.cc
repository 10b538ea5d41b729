#include "common/event_queue.h"

#include "common/diag.h"

namespace tsf::common {

EventQueue::Entry* EventQueue::acquire() {
  if (!free_.empty()) {
    Entry* e = free_.back();
    free_.pop_back();
    return e;
  }
  // TSF_LINT_ALLOW[rt-alloc]: the pool's only growth point — steady state
  // pops the free list above and never reaches this line.
  storage_.push_back(std::make_unique<Entry>());
  // Every entry can be in the heap or on the free list, never both; keeping
  // both capacities at or above pool size here (the only growth point)
  // means the steady state — which by definition creates no fresh entries —
  // never reallocates either container. Growing to twice the pool keeps
  // filling the queue amortized O(1) per entry.
  if (heap_.capacity() < storage_.size() ||
      free_.capacity() < storage_.size()) {
    heap_.reserve(2 * storage_.size());
    free_.reserve(2 * storage_.size());
  }
  return storage_.back().get();
}

void EventQueue::recycle(Entry* e) {
  e->cb = nullptr;      // release the callable (and anything it captured)
  ++e->generation;      // outstanding handles go inert
  e->cancelled = false;
  free_.push_back(e);
}

EventQueue::Handle EventQueue::schedule(TimePoint at, Callback cb,
                                        bool taxed) {
  Entry* entry = acquire();
  entry->at = at;
  entry->seq = next_seq_++;
  entry->cb = std::move(cb);
  entry->taxed = taxed;
  heap_.push(entry);
  ++scheduled_count_;
  return Handle(entry, entry->generation);
}

void EventQueue::purge() {
  while (!heap_.empty() && heap_.top()->cancelled) {
    Entry* e = heap_.top();
    heap_.pop();
    recycle(e);
  }
}

bool EventQueue::empty() {
  purge();
  return heap_.empty();
}

TimePoint EventQueue::next_time() {
  purge();
  return heap_.empty() ? TimePoint::never() : heap_.top()->at;
}

void EventQueue::pop_and_run() {
  purge();
  TSF_ASSERT(!heap_.empty(), "pop_and_run on empty event queue");
  Entry* entry = heap_.top();
  heap_.pop();
  const bool taxed = entry->taxed;
  Callback cb = std::move(entry->cb);
  // Recycle before running: the callback may schedule (possibly onto this
  // very entry) or cancel events; its own handle is already inert.
  recycle(entry);
  if (taxed && fire_tax_) fire_tax_();
  cb();
}

}  // namespace tsf::common
