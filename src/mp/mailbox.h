// Lock-free MPSC mailboxes: the staging path of every cross-core fire.
//
// Under `backend = threads` every core's worker runs concurrently inside an
// epoch, so a handler completing on core A cannot touch the ChannelFabric
// directly (the fabric's routing table and mailboxes are plain containers,
// and the lock-step delivery order would be lost anyway). Instead each
// outbound fire is *staged*: pushed into one shared MpscQueue as a
// StagedFire carrying its producing core and a per-producer sequence
// number. MultiVm's boundary step — the single consumer — drains the queue
// while every core is paused, sorts the batch into replay order, and
// replays it through ChannelFabric::post_fire. The lock-step stepper stages
// the same way, so both steppers share one path into the fabric.
//
// Replay order is what makes the threads stepper bit-reproducible against
// the lock-step oracle: the lock-step stepper advances VMs sequentially
// within an epoch, so its staged post order is exactly (core, per-core post
// order) per epoch. Sorting an epoch's staged fires by (from_core, seq)
// reconstructs that order no matter how the OS interleaved the workers.
//
// The queue itself is Dmitry Vyukov's non-intrusive MPSC design: producers
// exchange the head pointer (wait-free) and then publish the link; the
// single consumer chases the links from a stub node. Per-producer FIFO is
// inherited from the head's modification order. The consumer may observe a
// transiently broken link (a producer between exchange and publish), in
// which case pop() returns false; here the consumer only drains at epoch
// barriers, when every producer is quiescent and ordered before it, so a
// drain loop always sees the complete batch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"

namespace tsf::mp {

// One staged cross-core fire: everything ChannelFabric::post_fire needs,
// plus the (from_core, seq) replay key.
struct StagedFire {
  std::string job;
  std::size_t from_core = 0;
  common::TimePoint posted = common::TimePoint::never();
  // Per-producer sequence number (each core's port counts its own posts);
  // combined with from_core it totally orders an epoch's batch.
  std::uint64_t seq = 0;
};

// Sorts an epoch's drained batch into the lock-step oracle's post order:
// by producing core, then per-producer sequence.
TSF_DETERMINISM_CRITICAL
void sort_replay_order(std::vector<StagedFire>* batch);

// Vyukov non-intrusive MPSC queue with node pooling. push() is safe from
// any number of threads concurrently; pop() must only ever be called from
// one consumer thread at a time. Unbounded.
//
// Nodes are recycled through a lock-free free stack instead of being
// heap-allocated per push, so after the first epoch's high-water mark the
// steady-state loop allocates nothing. The stack is ABA-safe *only* under
// this file's barrier protocol: producers pop free nodes mid-epoch (pops
// alone cannot ABA — a popped node is never re-pushed until the barrier),
// and only the consumer pushes, via recycle(), while every producer is
// parked at the barrier. pop() therefore stashes spent nodes on a
// consumer-local list; recycle() publishes the stash when quiescence makes
// that safe.
template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  ~MpscQueue() {
    free_list(tail_);
    free_list(stash_);
    free_list(free_head_.load(std::memory_order_relaxed));
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Multi-producer: wait-free exchange on the head, then link publication.
  // Reuses a pooled node when one is available (the value is move-assigned
  // into it, so e.g. a recycled string's buffer is itself reused).
  TSF_WORKER_PHASE TSF_REALTIME
  void push(T value) {
    Node* n = acquire_node();
    n->value = std::move(value);
    Node* prev = head_.exchange(n, std::memory_order_acq_rel);
    prev->next.store(n, std::memory_order_release);
  }

  // Single-consumer. Returns false when empty — or when the next link is
  // not yet published (a producer paused between exchange and publish);
  // callers that need a complete drain must only rely on it after
  // synchronizing with every producer.
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  bool pop(T* out) {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    *out = std::move(next->value);
    tail_ = next;
    tail->next.store(stash_, std::memory_order_relaxed);
    stash_ = tail;
    return true;
  }

  // Consumer-only, and only while every producer is quiescent (parked at
  // the epoch barrier): publishes the nodes spent by pop() back onto the
  // free stack for next epoch's pushes.
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  void recycle() {
    if (stash_ == nullptr) return;
    Node* last = stash_;
    while (Node* next = last->next.load(std::memory_order_relaxed)) {
      last = next;
    }
    last->next.store(free_head_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    free_head_.store(stash_, std::memory_order_release);
    stash_ = nullptr;
  }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  Node* acquire_node() {
    Node* top = free_head_.load(std::memory_order_acquire);
    while (top != nullptr) {
      // Benign race: `top` may be concurrently popped and already back in
      // the live queue, making this ->next read stale — but then the CAS
      // fails (no push happens mid-epoch, so the head cannot ABA back).
      Node* next = top->next.load(std::memory_order_relaxed);
      if (free_head_.compare_exchange_weak(top, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        top->next.store(nullptr, std::memory_order_relaxed);
        return top;
      }
    }
    // TSF_LINT_ALLOW[rt-alloc]: pool-growth point, reached only until the
    // first epoch's high-water mark; steady-state pushes pop the free stack.
    return new Node();
  }

  static void free_list(Node* n) {
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  std::atomic<Node*> head_;  // producers exchange here
  alignas(64) Node* tail_;   // consumer-owned; stub-chasing pointer
  alignas(64) std::atomic<Node*> free_head_{nullptr};  // pooled nodes
  Node* stash_ = nullptr;  // consumer-local, published by recycle()
};

}  // namespace tsf::mp
