// Bounded MPSC ring queue — the ingest buffer between stream sources
// and the online assembler (paper §6 positions DLACEP against blind
// emergency shedding; a bounded queue is where that pressure becomes
// visible). Two producer modes:
//
//   * Push()    — blocks while the queue is full (lossless
//                 backpressure; the producer is throttled to the
//                 consumer's pace),
//   * TryPush() — returns false when full (the caller counts the event
//                 as dropped-at-ingest).
//
// Multiple producers may push concurrently; exactly one consumer may
// Pop(). Close() wakes everyone: pending Push/TryPush fail, Pop drains
// the remaining events and then returns false. The queue also tracks
// its high-water mark, the overload controller's primary signal.
//
// Burst variants (PushBurst/PopBurst) move many elements
// per lock acquisition and per condition-variable signal, so the
// sharded runtime's router and shard workers pay the mutex atomics and
// futex wakeups once per burst instead of once per element. The
// per-shard work and completion rings are RingQueues used in
// single-producer/single-consumer mode — the router is the only pusher
// of a shard's work ring and the shard worker its only popper (and
// vice versa for the completion ring).

#ifndef DLACEP_RUNTIME_RING_QUEUE_H_
#define DLACEP_RUNTIME_RING_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dlacep {

template <typename T>
class RingQueue {
 public:
  explicit RingQueue(size_t capacity) : ring_(capacity) {
    DLACEP_CHECK_GT(capacity, 0u);
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  /// Blocking push. Returns false iff the queue was closed (the value
  /// is discarded).
  bool Push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return size_ < ring_.size() || closed_; });
    if (closed_) return false;
    Enqueue(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when the queue is full or closed.
  bool TryPush(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ == ring_.size()) return false;
      Enqueue(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking burst push: enqueues values[0..count) in order, waiting
  /// for space as needed but taking the lock and signalling the
  /// consumer once per chunk of freed capacity instead of once per
  /// element. Returns the number of values accepted — count unless the
  /// queue was closed mid-burst (the accepted prefix is still
  /// delivered; the rest is discarded).
  size_t PushBurst(T* values, size_t count) {
    size_t pushed = 0;
    while (pushed < count) {
      size_t chunk = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_full_.wait(lock,
                       [&] { return size_ < ring_.size() || closed_; });
        if (closed_) break;
        while (pushed < count && size_ < ring_.size()) {
          Enqueue(std::move(values[pushed++]));
          ++chunk;
        }
      }
      if (chunk > 0) not_empty_.notify_one();
    }
    return pushed;
  }

  /// Blocking pop. Returns false once the queue is closed AND drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return false;  // closed and drained
    *out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Non-blocking pop. Returns false when the queue is currently empty
  /// (closed or not) — the sharded merge uses this to opportunistically
  /// retire completions without ever waiting on a shard.
  bool TryPop(T* out) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (size_ == 0) return false;
      *out = std::move(ring_[head_]);
      head_ = (head_ + 1) % ring_.size();
      --size_;
    }
    not_full_.notify_one();
    return true;
  }

  /// Blocking burst pop: waits for at least one element (or close),
  /// then appends up to max_count elements to *out under a single lock
  /// acquisition. Returns the number popped; 0 means closed AND
  /// drained, the same terminal condition as Pop() returning false.
  size_t PopBurst(std::vector<T>* out, size_t max_count) {
    size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
      while (popped < max_count && size_ > 0) {
        out->push_back(std::move(ring_[head_]));
        head_ = (head_ + 1) % ring_.size();
        --size_;
        ++popped;
      }
    }
    // A burst frees many slots at once; every blocked producer may have
    // room now.
    if (popped > 0) not_full_.notify_all();
    return popped;
  }

  /// Pop bounded by a timeout: blocks at most `seconds` for an element.
  /// Returns true with *out on success; on false, *timed_out
  /// distinguishes an expired wait (true — the queue may still produce
  /// later) from closed-and-drained (false — same terminal condition as
  /// Pop returning false). The online assembler uses this while a
  /// partial micro-batch is buffered, so a quiet stream can't hold the
  /// batch past its flush deadline.
  bool PopFor(T* out, double seconds, bool* timed_out) {
    std::unique_lock<std::mutex> lock(mu_);
    *timed_out =
        !not_empty_.wait_for(lock, std::chrono::duration<double>(seconds),
                             [&] { return size_ > 0 || closed_; });
    if (*timed_out) return false;
    if (size_ == 0) return false;  // closed and drained
    *out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Marks the queue closed: producers fail from here on, the consumer
  /// drains what is left. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t capacity() const { return ring_.size(); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  /// Largest depth ever observed (under the queue lock, so exact).
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  void Enqueue(T value) {  // callers hold mu_ and have checked space
    ring_[(head_ + size_) % ring_.size()] = std::move(value);
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_RING_QUEUE_H_
