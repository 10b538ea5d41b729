#include "core/pending_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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
