// Unit tests for the fixed-size thread pool behind parallel filtration.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"

namespace dlacep {
namespace {

TEST(ResolveNumThreads, ZeroMeansHardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
}

TEST(ThreadPool, RunsEverySubmittedTaskBeforeWaitReturns) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
  pool.Wait();  // no pending work — must not block
}

TEST(ThreadPool, ParallelForTouchesEachIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> slots(257, 0);
  std::atomic<bool> worker_in_range{true};
  ParallelForWorker(&pool, slots.size(), [&](size_t worker, size_t i) {
    if (worker >= pool.num_threads()) worker_in_range = false;
    slots[i] += 1;
  });
  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0), 257);
  for (int v : slots) EXPECT_EQ(v, 1);
  EXPECT_TRUE(worker_in_range.load());
}

TEST(ThreadPool, ParallelForWithNullPoolRunsSequentiallyInOrder) {
  std::vector<size_t> order;
  std::vector<size_t> workers;
  ParallelForWorker(nullptr, 5, [&](size_t worker, size_t i) {
    workers.push_back(worker);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(workers, (std::vector<size_t>(5, 0)));
}

TEST(ThreadPool, ParallelForZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  ParallelForWorker(&pool, 0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, DestructorJoinsWithQueuedWorkStillPending) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): destruction must drain the queue before joining.
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace dlacep
