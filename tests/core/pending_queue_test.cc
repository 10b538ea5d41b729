#include "core/pending_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/dover_queue.h"
#include "core/polling_task_server.h"
#include "core/servable_async_event_handler.h"
#include "rtsj/vm/vm.h"

namespace tsf::core {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }

// Handlers with declared costs only; logic never runs in these tests.
class HandlerPool {
 public:
  ServableAsyncEventHandler* make(const std::string& name, Duration cost) {
    pool_.push_back(std::make_unique<ServableAsyncEventHandler>(
        name, cost, [](rtsj::Timed&) {}));
    return pool_.back().get();
  }

 private:
  std::vector<std::unique_ptr<ServableAsyncEventHandler>> pool_;
};

Request req(ServableAsyncEventHandler* h, std::uint64_t seq) {
  Request r;
  r.handler = h;
  r.release = TimePoint::origin();
  r.seq = seq;
  return r;
}

// Returns the lambda itself (not a FitsFn, which is a non-owning reference
// and would dangle past this statement); call expressions bind it in place.
auto fits_under(Duration budget) {
  return [budget](Duration cost) { return cost <= budget; };
}

TEST(StrictFifoQueue, HeadBlocksWhenTooExpensive) {
  HandlerPool pool;
  FifoQueue q(/*first_fit=*/false);
  q.push(req(pool.make("big", tu(3)), 0));
  q.push(req(pool.make("small", tu(1)), 1));
  // Head does not fit: nothing is served, even though "small" would fit.
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(2))).has_value());
  auto r = q.pop_fitting(fits_under(tu(3)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->handler->name(), "big");
}

TEST(StrictFifoQueue, FifoOrder) {
  HandlerPool pool;
  FifoQueue q(/*first_fit=*/false);
  q.push(req(pool.make("a", tu(1)), 0));
  q.push(req(pool.make("b", tu(1)), 1));
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "a");
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "b");
  EXPECT_TRUE(q.empty());
}

TEST(FifoFirstFitQueue, SkipsOversizedHead) {
  // The §6.2.2 example: "if the event queue contains two tasks tau1 and
  // tau2, with c1 = 3 and c2 = 1, if the remaining capacity of the server
  // is 2, then tau2 can be executed instantaneously, even if it has been
  // released after tau1."
  HandlerPool pool;
  FifoQueue q(/*first_fit=*/true);
  q.push(req(pool.make("tau1", tu(3)), 0));
  q.push(req(pool.make("tau2", tu(1)), 1));
  auto r = q.pop_fitting(fits_under(tu(2)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->handler->name(), "tau2");
  // tau1 is still queued.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_fitting(fits_under(tu(3)))->handler->name(), "tau1");
}

TEST(FifoFirstFitQueue, PrefersFifoAmongFitting) {
  HandlerPool pool;
  FifoQueue q(/*first_fit=*/true);
  q.push(req(pool.make("a", tu(2)), 0));
  q.push(req(pool.make("b", tu(1)), 1));
  EXPECT_EQ(q.pop_fitting(fits_under(tu(2)))->handler->name(), "a");
}

TEST(FifoFirstFitQueue, DrainReturnsEverythingInOrder) {
  HandlerPool pool;
  FifoQueue q(/*first_fit=*/true);
  q.push(req(pool.make("a", tu(9)), 0));
  q.push(req(pool.make("b", tu(9)), 1));
  const auto rest = q.drain();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].handler->name(), "a");
  EXPECT_EQ(rest[1].handler->name(), "b");
  EXPECT_TRUE(q.empty());
}

TEST(ListOfListsQueue, AppendsToLastOpenBucket) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));  // bucket 0 (load 3)
  q.push(req(pool.make("b", tu(2)), 1));  // bucket 1 (3+2 > 4)
  q.push(req(pool.make("c", tu(1)), 2));  // bucket 1 (2+1 <= 4, FIFO kept)
  EXPECT_EQ(q.bucket_count(), 2u);
  EXPECT_EQ(q.size(), 3u);

  // A cost-2 release would overflow the last bucket (3+2 > 4): it opens
  // instance 2; a cost-1 release still fits behind c.
  const auto p2 = q.placement_for(tu(2));
  EXPECT_EQ(p2.instance_offset, 2);
  EXPECT_EQ(p2.cumulative_before, Duration::zero());
  const auto p1 = q.placement_for(tu(1));
  EXPECT_EQ(p1.instance_offset, 1);
  EXPECT_EQ(p1.cumulative_before, tu(3));
}

TEST(ListOfListsQueue, PlacementForFullBucketsOpensNewOne) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(4)), 0));
  const auto p = q.placement_for(tu(4));
  EXPECT_EQ(p.instance_offset, 1);
  EXPECT_EQ(p.cumulative_before, Duration::zero());
}

TEST(ListOfListsQueue, ServesOnlyActiveInstance) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));
  q.push(req(pool.make("b", tu(3)), 1));  // next instance
  // Nothing is active until the first activation.
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(4))).has_value());
  q.begin_instance();
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "a");
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(4))).has_value());
  q.begin_instance();
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "b");
  EXPECT_TRUE(q.empty());
}

TEST(ListOfListsQueue, LeftoversAreReRegistered) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));
  q.begin_instance();
  // Not served (e.g. capacity consumed by overhead); next activation must
  // still offer it.
  q.begin_instance();
  auto r = q.pop_fitting(fits_under(tu(4)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->handler->name(), "a");
}

TEST(ListOfListsQueue, DrainCoversActiveAndFuture) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));
  q.push(req(pool.make("b", tu(3)), 1));
  q.begin_instance();
  const auto rest = q.drain();
  EXPECT_EQ(rest.size(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(ListOfListsQueue, OversizedRequestsParkedNotBlocking) {
  // A request above the capacity violates the §4 constraint; it must not
  // waste a server instance, but it must still appear in the final drain.
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("huge", tu(5)), 0));
  q.push(req(pool.make("ok", tu(2)), 1));
  EXPECT_TRUE(!q.empty());
  EXPECT_EQ(q.size(), 2u);
  q.begin_instance();
  // The servable request comes straight out; the oversized one never does.
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "ok");
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(4))).has_value());
  EXPECT_TRUE(q.empty());  // no *servable* work left
  const auto rest = q.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].handler->name(), "huge");
}

// take() names what leaves by predicate; these tests name by release seq,
// the handle the epoch-boundary passes use.
auto seq_in(std::vector<std::uint64_t> seqs) {
  return [seqs = std::move(seqs)](const Request& r) {
    return std::find(seqs.begin(), seqs.end(), r.seq) != seqs.end();
  };
}

std::vector<std::string> names(const std::vector<Request>& requests) {
  std::vector<std::string> out;
  for (const auto& r : requests) out.push_back(r.handler->name());
  return out;
}

std::vector<std::string> drained_names(PendingQueue& q) {
  return names(q.drain());
}

using Names = std::vector<std::string>;

TEST(PendingQueueTake, FifoDisciplinesTakeInQueueOrderAndKeepTheRest) {
  for (const auto discipline : {model::QueueDiscipline::kStrictFifo,
                                model::QueueDiscipline::kFifoFirstFit}) {
    HandlerPool pool;
    auto q = PendingQueue::make(discipline, tu(4));
    for (std::uint64_t i = 0; i < 6; ++i) {
      q->push(req(pool.make("r" + std::to_string(i), tu(1)), i));
    }
    std::vector<Request> taken;
    // The predicate lists seqs out of order; take still yields queue order.
    const auto pick = seq_in({4, 1, 2});
    q->take(pick, &taken);
    EXPECT_EQ(names(taken), (Names{"r1", "r2", "r4"}));
    EXPECT_EQ(q->size(), 3u);
    EXPECT_EQ(drained_names(*q), (Names{"r0", "r3", "r5"}));
  }
}

TEST(PendingQueueTake, TakingNothingLeavesTheQueueAlone) {
  HandlerPool pool;
  FifoQueue q(/*first_fit=*/true);
  q.push(req(pool.make("a", tu(1)), 0));
  q.push(req(pool.make("b", tu(1)), 1));
  std::vector<Request> taken;
  q.take([](const Request&) { return false; }, &taken);
  EXPECT_TRUE(taken.empty());
  EXPECT_EQ(drained_names(q), (Names{"a", "b"}));
}

TEST(PendingQueueTake, ListOfListsBucketLoadsFallByWhatIsTaken) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));  // bucket 0 (load 3)
  q.push(req(pool.make("b", tu(2)), 1));  // bucket 1 (load 2)
  q.push(req(pool.make("c", tu(2)), 2));  // bucket 1 (load 4: full)
  EXPECT_EQ(q.placement_for(tu(2)).instance_offset, 2);

  std::vector<Request> taken;
  q.take(seq_in({2}), &taken);
  EXPECT_EQ(names(taken), (Names{"c"}));
  // Bucket 1 is down to load 2, so a cost-2 release fits behind b again.
  const auto p = q.placement_for(tu(2));
  EXPECT_EQ(p.instance_offset, 1);
  EXPECT_EQ(p.cumulative_before, tu(2));
  EXPECT_EQ(q.bucket_count(), 2u);
}

TEST(PendingQueueTake, ListOfListsDropsABucketTakeEmpties) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));  // bucket 0
  q.push(req(pool.make("b", tu(3)), 1));  // bucket 1
  q.push(req(pool.make("c", tu(3)), 2));  // bucket 2
  std::vector<Request> taken;
  q.take(seq_in({1}), &taken);
  EXPECT_EQ(names(taken), (Names{"b"}));
  EXPECT_EQ(q.bucket_count(), 2u);
  // The surviving instances keep their order: a, then c.
  q.begin_instance();
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "a");
  q.begin_instance();
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "c");
  EXPECT_TRUE(q.empty());
}

TEST(PendingQueueTake, ListOfListsReachesTheActiveListButNeverUnservable) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("active", tu(3)), 0));
  q.push(req(pool.make("huge", tu(5)), 1));  // parked: above capacity
  q.push(req(pool.make("future", tu(3)), 2));
  q.begin_instance();  // "active" becomes the active list
  std::vector<Request> taken;
  q.take([](const Request&) { return true; }, &taken);
  EXPECT_EQ(names(taken), (Names{"active", "future"}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(drained_names(q), (Names{"huge"}));
}

TEST(PendingQueueTake, DOverDemotesAPrivilegedEntryBeforeItLeaves) {
  HandlerPool pool;
  std::vector<Request> taken;
  std::vector<std::pair<std::string, std::size_t>> demoted;  // (who, |taken|)
  DOverQueue::Config config;
  config.now = [] { return TimePoint::origin(); };
  config.meta = [](const Request& r) {
    DOverQueue::JobMeta meta;
    meta.value = r.handler->cost().to_tu();
    meta.relative_deadline = tu(10);
    return meta;
  };
  config.on_admit = [](const Request&, bool) {};
  config.on_demote = [&](const Request& r) {
    demoted.emplace_back(r.handler->name(), taken.size());
  };
  config.on_shed = [](const Request&, const std::string&) {};
  DOverQueue q(std::move(config));
  q.push(req(pool.make("admitted", tu(2)), 0));
  // 2 + 9 > 10: infeasible beside "admitted", yet far from its latest
  // start time, so it waits unprivileged.
  q.push(req(pool.make("waiting", tu(9)), 1));
  ASSERT_EQ(q.privileged_count(), 1u);

  q.take([](const Request&) { return true; }, &taken);
  EXPECT_EQ(names(taken), (Names{"admitted", "waiting"}));
  // Only the privileged entry is demoted, and before it joined `taken`.
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].first, "admitted");
  EXPECT_EQ(demoted[0].second, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(TaskServerTake, NeverTakesAReleaseAtTheCurrentInstant) {
  rtsj::vm::VirtualMachine vm;
  TaskServerParameters params("server", tu(4), tu(6), 30);
  PollingTaskServer server(vm, params);
  vm.run_until(TimePoint::origin() + tu(5));
  HandlerPool pool;
  auto* earlier = pool.make("earlier", tu(1));
  auto* now = pool.make("now", tu(1));
  earlier->set_server(&server);
  now->set_server(&server);
  server.servable_event_released(earlier, TimePoint::origin() + tu(4));
  server.servable_event_released(now);  // at the VM clock: mid-bind

  std::vector<Request> taken;
  server.take_pending([](const Request&) { return true; }, &taken);
  EXPECT_EQ(names(taken), (Names{"earlier"}));
  EXPECT_EQ(server.pending_count(), 1u);
}

TEST(Ring, PushFrontFromSlotZeroWrapsAndGrowthKeepsOrder) {
  Ring<int> ring;
  ring.push_front(2);  // head at slot 0: wraps to the last slot
  ring.push_front(1);
  ring.push_back(3);
  for (int v = 4; v <= 20; ++v) ring.push_back(v);  // two doublings
  ring.push_front(0);
  ASSERT_EQ(ring.size(), 21u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i));
  }
  EXPECT_EQ(ring.remove(5), 5);
  EXPECT_EQ(ring.remove(0), 0);
  ring.truncate(3);
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0], 1);
  EXPECT_EQ(ring[1], 2);
  EXPECT_EQ(ring.back(), 3);
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

// Reference-model property test: seeded random op sequences run on a real
// queue and on a naive model of its discipline (plain vectors), compared
// after every op. This is the coverage for the queues' ring storage: its
// seam (requeue wraps the head around slot 0), its growth, and the
// list-of-lists bucket bookkeeping layered over it.
class QueueModel {
 public:
  QueueModel(model::QueueDiscipline discipline, Duration capacity)
      : discipline_(discipline), capacity_(capacity) {}

  void push(const Request& r) {
    if (discipline_ != model::QueueDiscipline::kListOfLists) {
      active_.push_back(r);
      return;
    }
    const Duration c = r.handler->cost();
    if (c > capacity_) {
      unservable_.push_back(r);
      return;
    }
    if (buckets_.empty() || buckets_.back().load + c > capacity_) {
      buckets_.emplace_back();
    }
    buckets_.back().requests.push_back(r);
    buckets_.back().load += c;
  }
  void requeue(const Request& r) { active_.insert(active_.begin(), r); }
  std::optional<Request> pop_fitting(Duration budget) {
    const bool first_fit =
        discipline_ == model::QueueDiscipline::kFifoFirstFit;
    const std::size_t last = first_fit ? active_.size()
                                       : std::min<std::size_t>(1, active_.size());
    for (std::size_t i = 0; i < last; ++i) {
      if (active_[i].handler->cost() <= budget) {
        const Request r = active_[i];
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
        return r;
      }
    }
    return std::nullopt;
  }
  void begin_instance() {
    if (discipline_ != model::QueueDiscipline::kListOfLists) return;
    const std::vector<Request> leftovers = std::move(active_);
    active_.clear();
    for (const Request& r : leftovers) push(r);
    if (!buckets_.empty()) {
      active_ = buckets_.front().requests;
      buckets_.erase(buckets_.begin());
    }
  }
  std::vector<std::uint64_t> take(std::uint64_t modulus, std::uint64_t rest) {
    std::vector<std::uint64_t> out;
    // Moves the matches out of `from` in order; returns their cost.
    const auto extract = [&](std::vector<Request>& from) {
      std::vector<Request> kept;
      Duration taken = Duration::zero();
      for (const Request& r : from) {
        if (r.seq % modulus == rest) {
          out.push_back(r.seq);
          taken += r.handler->cost();
        } else {
          kept.push_back(r);
        }
      }
      from = std::move(kept);
      return taken;
    };
    extract(active_);
    std::vector<Bucket> kept;
    for (Bucket& b : buckets_) {
      b.load -= extract(b.requests);
      if (!b.requests.empty()) kept.push_back(b);
    }
    buckets_ = std::move(kept);
    return out;
  }
  // Everything take() could reach, in queue order.
  std::vector<std::uint64_t> visit() const {
    std::vector<std::uint64_t> out;
    for (const Request& r : active_) out.push_back(r.seq);
    for (const Bucket& b : buckets_) {
      for (const Request& r : b.requests) out.push_back(r.seq);
    }
    return out;
  }
  std::vector<std::uint64_t> drain() {
    std::vector<std::uint64_t> out = visit();
    for (const Request& r : unservable_) out.push_back(r.seq);
    active_.clear();
    buckets_.clear();
    unservable_.clear();
    return out;
  }
  bool empty() const { return active_.empty() && buckets_.empty(); }
  std::size_t size() const { return visit().size() + unservable_.size(); }
  std::size_t bucket_count() const { return buckets_.size(); }
  ListOfListsQueue::Placement placement_for(Duration cost) const {
    ListOfListsQueue::Placement p;
    p.instance_offset = static_cast<std::int64_t>(buckets_.size());
    if (!buckets_.empty() && buckets_.back().load + cost <= capacity_) {
      --p.instance_offset;
      p.cumulative_before = buckets_.back().load;
    }
    return p;
  }

 private:
  struct Bucket {
    std::vector<Request> requests;
    Duration load = Duration::zero();
  };
  model::QueueDiscipline discipline_;
  Duration capacity_;
  std::vector<Request> active_;  // the whole queue for the FIFO disciplines
  std::vector<Bucket> buckets_;
  std::vector<Request> unservable_;
};

std::vector<std::uint64_t> seqs(const std::vector<Request>& requests) {
  std::vector<std::uint64_t> out;
  for (const Request& r : requests) out.push_back(r.seq);
  return out;
}

// Quarter-tu costs 0.25 .. 2.25 against a 2-tu capacity: the last one can
// never be served (the list-of-lists queue parks it).
constexpr int kCostSteps = 9;
Duration quarters(std::int64_t n) {
  return Duration::ticks(Duration::kTicksPerTimeUnit / 4) * n;
}

// Runs `ops` random operations from `seed`, raising *deepest to the
// deepest size seen.
void run_against_model(model::QueueDiscipline discipline, std::uint64_t seed,
                       int ops, std::size_t* deepest) {
  const Duration capacity = tu(2);
  HandlerPool pool;
  std::vector<ServableAsyncEventHandler*> by_cost;
  for (int k = 1; k <= kCostSteps; ++k) {
    by_cost.push_back(pool.make("c" + std::to_string(k), quarters(k)));
  }
  auto queue = PendingQueue::make(discipline, capacity);
  auto* lol = dynamic_cast<ListOfListsQueue*>(queue.get());
  QueueModel model(discipline, capacity);
  std::mt19937_64 rng(seed);
  std::uint64_t next_seq = 0;
  std::vector<Request> popped;  // since the last requeue, in pop order

  const auto push = [&](std::size_t cost_step) {
    const Request r = req(by_cost[cost_step], next_seq++);
    queue->push(r);
    model.push(r);
  };
  const auto pop = [&](Duration budget) {
    const auto got = queue->pop_fitting(fits_under(budget));
    const auto want = model.pop_fitting(budget);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) return;
    ASSERT_EQ(got->seq, want->seq);
    popped.push_back(*got);
  };
  const auto requeue = [&] {
    for (auto it = popped.rbegin(); it != popped.rend(); ++it) {
      queue->requeue(*it);
      model.requeue(*it);
    }
    popped.clear();
  };
  const auto drain = [&] {
    ASSERT_EQ(seqs(queue->drain()), model.drain());
  };

  // Scripted prologue: a requeue onto a drained ring (head at slot 0), so
  // the head wraps to the last slot, then growth across that seam.
  for (int i = 0; i < 3; ++i) push(3);  // 1 tu each
  queue->begin_instance();
  model.begin_instance();
  pop(capacity);
  ASSERT_EQ(popped.size(), 1u);
  drain();
  requeue();
  for (int i = 0; i < 12; ++i) push(3);

  for (int op = 0; op < ops; ++op) {
    // Push-heavy first half, pop-heavy second half: depths swing past two
    // ring doublings and back.
    const bool filling = op < ops / 2;
    const std::uint64_t dice = rng() % 100;
    if (dice < (filling ? 45u : 15u)) {
      push(rng() % kCostSteps);
    } else if (dice < 70) {
      pop(quarters(static_cast<std::int64_t>(rng() % 11)));
    } else if (dice < 76) {
      requeue();
    } else if (dice < 86) {
      queue->begin_instance();
      model.begin_instance();
    } else if (dice < 92) {
      const std::uint64_t modulus = 2 + rng() % 4;
      const std::uint64_t rest = rng() % modulus;
      std::vector<Request> taken;
      queue->take([&](const Request& r) { return r.seq % modulus == rest; },
                  &taken);
      ASSERT_EQ(seqs(taken), model.take(modulus, rest));
    } else if (dice < 99) {
      std::vector<std::uint64_t> visited;
      queue->visit([&](const Request& r) { visited.push_back(r.seq); });
      ASSERT_EQ(visited, model.visit());
    } else {
      drain();
    }
    if (::testing::Test::HasFatalFailure()) return;

    ASSERT_EQ(queue->size(), model.size()) << "op " << op;
    ASSERT_EQ(queue->empty(), model.empty()) << "op " << op;
    std::vector<std::uint64_t> visited;
    queue->visit([&](const Request& r) { visited.push_back(r.seq); });
    ASSERT_EQ(visited, model.visit()) << "op " << op;
    if (lol != nullptr) {
      ASSERT_EQ(lol->bucket_count(), model.bucket_count()) << "op " << op;
      for (int k = 1; k <= kCostSteps; ++k) {
        const auto got = lol->placement_for(quarters(k));
        const auto want = model.placement_for(quarters(k));
        ASSERT_EQ(got.instance_offset, want.instance_offset) << "op " << op;
        ASSERT_EQ(got.cumulative_before, want.cumulative_before)
            << "op " << op;
      }
    }
    *deepest = std::max(*deepest, queue->size());
  }
  drain();
}

TEST(PendingQueueModel, EveryDisciplineMatchesItsReferenceModel) {
  for (const auto discipline : {model::QueueDiscipline::kStrictFifo,
                                model::QueueDiscipline::kFifoFirstFit,
                                model::QueueDiscipline::kListOfLists}) {
    std::size_t deepest = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      SCOPED_TRACE("discipline " + std::string(model::to_string(discipline)) +
                   ", seed " + std::to_string(seed));
      run_against_model(discipline, seed, 400, &deepest);
      if (HasFatalFailure()) return;
    }
    // Past two doublings of the ring's initial 8 slots.
    EXPECT_GT(deepest, 32u) << model::to_string(discipline);
  }
}

TEST(PendingQueueFactory, MakesEachDiscipline) {
  EXPECT_NE(PendingQueue::make(model::QueueDiscipline::kStrictFifo, tu(4)),
            nullptr);
  EXPECT_NE(PendingQueue::make(model::QueueDiscipline::kFifoFirstFit, tu(4)),
            nullptr);
  EXPECT_NE(PendingQueue::make(model::QueueDiscipline::kListOfLists, tu(4)),
            nullptr);
}

}  // namespace
}  // namespace tsf::core
