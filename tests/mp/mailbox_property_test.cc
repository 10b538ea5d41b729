// Property fuzz of the threads backend's MPSC mailbox: 200 randomized
// multi-producer rounds, each checked for the three invariants the staged
// replay depends on — no lost messages, no duplicated messages, no torn
// messages — plus strict per-producer FIFO. Message payloads carry a
// checksum over their fields so a torn read (fields from two different
// messages) is detected even when both halves are individually valid.
//
// Sized to stay fast under ThreadSanitizer: the suite runs in the `mp`
// (and `threads`) ctest labels that the TSan CI job executes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "mp/mailbox.h"

namespace tsf::mp {
namespace {

struct Msg {
  std::uint32_t producer = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
  std::uint64_t checksum = 0;

  static std::uint64_t expected_checksum(std::uint32_t producer,
                                         std::uint64_t seq,
                                         std::uint64_t payload) {
    // Cheap field mixer; any torn combination of two messages breaks it.
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    h ^= producer + 0x517cc1b727220a95ull + (h << 6) + (h >> 2);
    h ^= seq + 0x517cc1b727220a95ull + (h << 6) + (h >> 2);
    h ^= payload + 0x517cc1b727220a95ull + (h << 6) + (h >> 2);
    return h;
  }
};

// One randomized round: `producers` threads each push `per_producer`
// messages (with a seed-derived payload), the consumer drains after all
// producers joined — the same quiescent-drain discipline the epoch barrier
// gives MultiVm's threads stepper.
void run_round(std::uint32_t seed, std::uint32_t producers,
               std::uint64_t per_producer) {
  MpscQueue<Msg> queue;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::uint32_t p = 0; p < producers; ++p) {
    threads.emplace_back([&queue, &go, seed, p, per_producer] {
      std::mt19937_64 rng(seed * 1000003ull + p);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t s = 0; s < per_producer; ++s) {
        Msg m;
        m.producer = p;
        m.seq = s;
        m.payload = rng();
        m.checksum = Msg::expected_checksum(m.producer, m.seq, m.payload);
        queue.push(m);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  // Producers are quiescent and joined (ordered before this drain), so the
  // drain must see the complete batch — a false pop() here is a real loss.
  std::vector<std::uint64_t> next_seq(producers, 0);
  std::uint64_t drained = 0;
  Msg m;
  while (queue.pop(&m)) {
    ASSERT_LT(m.producer, producers) << "seed " << seed;
    ASSERT_EQ(m.checksum,
              Msg::expected_checksum(m.producer, m.seq, m.payload))
        << "torn message, seed " << seed;
    // Strict per-producer FIFO: each producer's messages arrive 0..n-1 in
    // order, which also rules out loss and duplication per producer.
    ASSERT_EQ(m.seq, next_seq[m.producer])
        << "producer " << m.producer << ", seed " << seed;
    ++next_seq[m.producer];
    ++drained;
  }
  ASSERT_EQ(drained, producers * per_producer) << "seed " << seed;
  for (std::uint32_t p = 0; p < producers; ++p) {
    ASSERT_EQ(next_seq[p], per_producer) << "producer " << p;
  }
}

TEST(MailboxProperty, TwoHundredRandomizedMultiProducerRounds) {
  std::mt19937 shape(42);
  for (std::uint32_t seed = 0; seed < 200; ++seed) {
    const std::uint32_t producers = 2 + shape() % 3;       // 2..4
    const std::uint64_t per_producer = 100 + shape() % 151;  // 100..250
    run_round(seed, producers, per_producer);
  }
}

TEST(MailboxProperty, InterleavedPushPopSingleProducer) {
  // With one producer the consumer may run concurrently (per-producer FIFO
  // needs no quiescence); exercises the pop-side link chase under load.
  MpscQueue<Msg> queue;
  constexpr std::uint64_t kCount = 20000;
  std::thread producer([&queue] {
    for (std::uint64_t s = 0; s < kCount; ++s) {
      Msg m;
      m.producer = 0;
      m.seq = s;
      m.payload = s * 2654435761ull;
      m.checksum = Msg::expected_checksum(m.producer, m.seq, m.payload);
      queue.push(m);
    }
  });
  std::uint64_t next = 0;
  Msg m;
  while (next < kCount) {
    if (queue.pop(&m)) {
      ASSERT_EQ(m.seq, next);
      ASSERT_EQ(m.checksum,
                Msg::expected_checksum(m.producer, m.seq, m.payload));
      ++next;
    }
  }
  producer.join();
  EXPECT_FALSE(queue.pop(&m));
}

TEST(MailboxProperty, DestructionReclaimsUnDrainedNodes) {
  // Leak-check path (ASan/valgrind in CI images that enable it): dropping a
  // queue with messages still inside must free every node.
  auto queue = std::make_unique<MpscQueue<Msg>>();
  for (std::uint64_t s = 0; s < 1000; ++s) {
    Msg m;
    m.seq = s;
    queue->push(m);
  }
  queue.reset();
}

TEST(MailboxProperty, SortReplayOrderReconstructsOracleOrder) {
  // (from_core, seq) sort is what re-creates the lock-step post order.
  std::vector<StagedFire> batch;
  const std::size_t cores[] = {2, 0, 1, 0, 2, 1, 0};
  const std::uint64_t seqs[] = {1, 0, 0, 1, 0, 1, 2};
  for (std::size_t i = 0; i < 7; ++i) {
    StagedFire f;
    f.job = "j" + std::to_string(i);
    f.from_core = cores[i];
    f.seq = seqs[i];
    batch.push_back(f);
  }
  sort_replay_order(&batch);
  for (std::size_t i = 1; i < batch.size(); ++i) {
    const bool ordered =
        batch[i - 1].from_core < batch[i].from_core ||
        (batch[i - 1].from_core == batch[i].from_core &&
         batch[i - 1].seq < batch[i].seq);
    EXPECT_TRUE(ordered) << "index " << i;
  }
}

}  // namespace
}  // namespace tsf::mp
