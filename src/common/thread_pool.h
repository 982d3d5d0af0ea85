// A fixed-size thread pool for data-parallel fan-out over independent
// work items (no work stealing — one shared FIFO queue).
//
// Usage contract: Submit() enqueues tasks, Wait() blocks until every
// submitted task has finished. Tasks must not throw; failures inside the
// library trip DLACEP_CHECK, which aborts. Determinism is the caller's
// job: workers race over the queue, so callers that need a reproducible
// result must write into pre-sized per-item slots and merge in item
// order after Wait() (see DlacepPipeline::Evaluate).

#ifndef DLACEP_COMMON_THREAD_POOL_H_
#define DLACEP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dlacep {

/// Resolves a thread-count knob: 0 means hardware concurrency (at least
/// 1 if the runtime cannot tell), any other value is taken literally.
size_t ResolveNumThreads(size_t requested);

/// Pins the calling thread to `core` (a hardware-concurrency index).
/// Best-effort: returns true on success, false when the platform has no
/// affinity API or the kernel refuses (cgroup cpusets, core out of
/// range). Callers must treat a false return as advisory — the sharded
/// runtime counts it in ShardStats and keeps running unpinned.
bool PinCurrentThreadToCore(size_t core);

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. May be called again after Wait().
  void Submit(std::function<void()> task);

  /// Blocks until all previously submitted tasks have completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  size_t outstanding_ = 0;  ///< queued + currently running tasks
  bool stop_ = false;
};

/// Runs fn(worker, i) for every i in [0, count), one task per index, and
/// blocks until all calls have returned. `worker` is the executing pool
/// worker's index in [0, num_threads()), so callers can maintain
/// per-worker scratch (e.g. one InferenceContext per worker) without
/// locking. A null pool (or a single-worker pool) degenerates to a plain
/// sequential loop that passes worker 0 for every item.
void ParallelForWorker(ThreadPool* pool, size_t count,
                       const std::function<void(size_t, size_t)>& fn);

}  // namespace dlacep

#endif  // DLACEP_COMMON_THREAD_POOL_H_
