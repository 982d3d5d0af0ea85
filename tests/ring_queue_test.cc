// RingQueue shutdown-race tests. The basic FIFO/accounting behavior is
// covered in runtime_test.cc; this file focuses on the races around
// Close() — producers blocked on a full queue, a consumer blocked on an
// empty one, and Close() arriving concurrently with both — and runs
// under TSan in CI (see the thread-sanitizer job's binary list).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/ring_queue.h"

namespace dlacep {
namespace {

TEST(RingQueueShutdown, CloseUnblocksConsumerOnEmptyQueue) {
  RingQueue<int> queue(4);
  std::atomic<bool> pop_result{true};
  std::thread consumer([&] {
    int out = 0;
    pop_result = queue.Pop(&out);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_FALSE(pop_result.load());
}

TEST(RingQueueShutdown, CloseUnblocksEveryBlockedProducer) {
  RingQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(0));  // queue now full
  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&queue, &rejected, i] {
      if (!queue.Push(i + 1)) rejected.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  for (std::thread& t : producers) t.join();
  // All four producers were blocked on the full queue; Close() must
  // wake and reject every one of them.
  EXPECT_EQ(rejected.load(), kProducers);
  int out = -1;
  EXPECT_TRUE(queue.Pop(&out));  // the pre-close element drains
  EXPECT_EQ(out, 0);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(RingQueueShutdown, ConcurrentCloseNeverLosesAcceptedValues) {
  // Producers hammer TryPush while Close() lands mid-stream: every
  // value a producer saw accepted must be popped exactly once, and
  // nothing may be popped that was not accepted.
  RingQueue<int> queue(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &accepted] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (queue.TryPush(i)) accepted.fetch_add(1);
      }
    });
  }
  std::thread closer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    queue.Close();
  });
  int popped = 0;
  int out = 0;
  while (queue.Pop(&out)) ++popped;
  for (std::thread& t : producers) t.join();
  closer.join();
  // The consumer stops once the queue is closed AND drained; by then
  // every producer has returned, so `accepted` is final. A TryPush that
  // raced Close() either got in (counted, popped) or was rejected.
  EXPECT_EQ(popped, accepted.load());
}

TEST(RingQueueShutdown, BlockingProducersDrainLosslesslyThroughClose) {
  // Lossless mode: producers Push (block, never drop) a fixed total and
  // close when done. The consumer must see exactly that total even with
  // heavy contention on a tiny queue.
  RingQueue<int> queue(2);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 1500;
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &done] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(i));
      }
      if (done.fetch_add(1) + 1 == kProducers) queue.Close();
    });
  }
  int popped = 0;
  int out = 0;
  while (queue.Pop(&out)) ++popped;
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(popped, kProducers * kPerProducer);
  EXPECT_LE(queue.high_water(), queue.capacity());
}

// ---------------------------------------------------------------------
// Burst variants (the sharded runtime's router/worker hot path).

TEST(RingQueueBurst, PushBurstPopBurstFifoThroughTinyQueue) {
  RingQueue<int> queue(2);
  constexpr int kCount = 500;
  std::thread producer([&] {
    std::vector<int> burst(kCount);
    for (int i = 0; i < kCount; ++i) burst[i] = i;
    // One call delivers the whole burst through a capacity-2 queue:
    // PushBurst blocks chunk by chunk, it never truncates while open.
    EXPECT_EQ(queue.PushBurst(burst.data(), burst.size()),
              static_cast<size_t>(kCount));
    queue.Close();
  });
  std::vector<int> out;
  int expected = 0;
  while (queue.PopBurst(&out, 16) > 0) {
    for (int v : out) EXPECT_EQ(v, expected++);
    out.clear();
  }
  EXPECT_EQ(expected, kCount);
  producer.join();
}

TEST(RingQueueBurst, PopBurstHonorsMaxAndDrainsAfterClose) {
  RingQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush(i));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBurst(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  queue.Close();
  EXPECT_EQ(queue.PopBurst(&out, 16), 2u);  // drains the remainder
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.PopBurst(&out, 16), 0u);  // closed AND drained
}

TEST(RingQueueBurst, TryPopNeverBlocks) {
  RingQueue<int> queue(2);
  int out = -1;
  EXPECT_FALSE(queue.TryPop(&out));  // empty, open
  ASSERT_TRUE(queue.TryPush(7));
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 7);
  queue.Close();
  EXPECT_FALSE(queue.TryPop(&out));  // empty, closed
}

TEST(RingQueueBurst, CloseUnblocksPopBurstOnEmptyQueue) {
  RingQueue<int> queue(4);
  std::atomic<size_t> popped{1};
  std::thread consumer([&] {
    std::vector<int> out;
    popped = queue.PopBurst(&out, 8);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_EQ(popped.load(), 0u);
}

TEST(RingQueueBurst, CloseUnblocksPushBurstAndKeepsAcceptedPrefix) {
  // The shutdown race: a producer mid-PushBurst is blocked on a full
  // queue when Close() lands. It must wake, report how much of the
  // burst was accepted, and that accepted prefix must drain losslessly
  // and in order — nothing past it may ever appear.
  RingQueue<int> queue(2);
  ASSERT_TRUE(queue.TryPush(-2));
  ASSERT_TRUE(queue.TryPush(-1));  // full before the burst starts
  constexpr size_t kBurst = 64;
  std::vector<int> burst(kBurst);
  for (size_t i = 0; i < kBurst; ++i) burst[i] = static_cast<int>(i);
  std::atomic<size_t> pushed{kBurst + 1};
  std::thread producer(
      [&] { pushed = queue.PushBurst(burst.data(), burst.size()); });
  // Drain a handful so the burst makes progress, then close under it.
  int out = 0;
  for (int want = -2; want < 4; ++want) {
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out, want);
  }
  queue.Close();
  producer.join();
  std::vector<int> drained;
  while (queue.Pop(&out)) drained.push_back(out);
  // 6 popped pre-close, 2 of them pre-existing: the burst can never
  // have completed through a capacity-2 queue.
  EXPECT_GE(pushed.load(), 4u);
  EXPECT_LT(pushed.load(), kBurst);
  ASSERT_EQ(drained.size(), pushed.load() - 4);
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i], static_cast<int>(i + 4));
  }
}

TEST(RingQueueShutdown, CloseIsIdempotentUnderConcurrentCallers) {
  RingQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(42));
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&queue] { queue.Close(); });
  }
  for (std::thread& t : closers) t.join();
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(queue.Pop(&out));
  EXPECT_FALSE(queue.TryPush(1));
}

}  // namespace
}  // namespace dlacep
