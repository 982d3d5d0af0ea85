#include "common/thread_pool.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/status.h"

namespace dlacep {

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

bool PinCurrentThreadToCore(size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (core >= CPU_SETSIZE) return false;
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

namespace {
// Worker slot of the calling thread; 0 for non-pool threads so that
// per-worker scratch indexed by it is always in range.
thread_local size_t current_worker_index = 0;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  DLACEP_CHECK_GT(num_threads, 0u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this, i);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  DLACEP_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++outstanding_;
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return outstanding_ == 0; });
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  current_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue before honoring stop_, so a destructor issued
      // after Submit() still runs every task exactly once.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      if (outstanding_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelForWorker(ThreadPool* pool, size_t count,
                       const std::function<void(size_t, size_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    pool->Submit([&fn, i] { fn(current_worker_index, i); });
  }
  pool->Wait();
}

}  // namespace dlacep
