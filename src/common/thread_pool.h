// Minimal threading primitives for the engine and the service:
//
//  * BoundedQueue<T> — a blocking bounded MPMC queue. With
//    validation_threads > 1 the composer thread pushes ranked candidates
//    and validation workers pop them. The bound provides back-pressure so
//    the composer never races arbitrarily far ahead of validation
//    (candidate queries hold materialized PJQuery objects and the whole
//    point of ranking is to validate the front of the order first).
//  * ThreadPool — a fixed set of workers draining a task queue, with
//    Wait() to quiesce. It backs FastQre's intra-candidate morsel pool and
//    the service's JobManager workers. Candidate validation does not use
//    it: FastQre spawns dedicated validation workers per mapping, whose
//    lifetime matches that mapping's validation phase exactly.
//  * RunMorsels — a per-batch fork/join over a shared morsel counter for
//    intra-candidate parallelism (DESIGN.md §12). The caller participates,
//    so a batch completes even when every pool worker is busy with some
//    other candidate's batch; ThreadPool::Wait() (which quiesces the whole
//    pool) is deliberately not used.
//
// Locking uses the annotated Mutex/CondVar wrappers (DESIGN.md §10) so the
// guarded-field invariants are checked by Clang's -Wthread-safety pass.
// Condition waits are written as explicit while-loops: the predicate then
// lives in the analyzed function body rather than in a lambda the analysis
// cannot relate to the held lock.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace fastqre {

/// \brief Blocking bounded multi-producer multi-consumer FIFO queue.
///
/// Close() wakes all blocked producers and consumers: pending Push() calls
/// return false, Pop() keeps draining buffered items and returns false once
/// the queue is empty. All methods are thread-safe.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Blocks while the queue is full. Returns false (dropping `item`) if the
  /// queue was closed before space became available.
  bool Push(T item) {
    {
      MutexLock lock(&mu_);
      while (items_.size() >= capacity_ && !closed_) not_full_.Wait(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks while the queue is empty and open. Returns false only when the
  /// queue is closed *and* drained.
  bool Pop(T* out) {
    {
      MutexLock lock(&mu_);
      while (items_.empty() && !closed_) not_empty_.Wait(mu_);
      if (items_.empty()) return false;
      *out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return true;
  }

  /// Idempotent. After Close(), producers fail fast and consumers drain.
  void Close() {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

/// \brief Fixed-size pool of worker threads draining an unbounded task queue.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    if (num_threads < 1) num_threads = 1;
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(&mu_);
      stopping_ = true;
    }
    work_ready_.NotifyAll();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (the task queue is unbounded).
  void Submit(std::function<void()> task) {
    {
      MutexLock lock(&mu_);
      tasks_.push_back(std::move(task));
      ++pending_;
    }
    work_ready_.NotifyOne();
  }

  /// Blocks until every task submitted so far has finished running.
  void Wait() {
    MutexLock lock(&mu_);
    while (pending_ != 0) idle_.Wait(mu_);
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(&mu_);
        while (tasks_.empty() && !stopping_) work_ready_.Wait(mu_);
        if (tasks_.empty()) return;  // stopping_ && drained
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
      {
        MutexLock lock(&mu_);
        if (--pending_ == 0) idle_.NotifyAll();
      }
    }
  }

  Mutex mu_;
  CondVar work_ready_;
  CondVar idle_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  size_t pending_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// \brief Runs fn(morsel_index) for every index in [0, num_morsels), claiming
/// indexes from a shared atomic counter: the calling thread always drains the
/// counter itself, and up to `extra_workers` helper tasks are submitted to
/// `pool` (when non-null) to steal morsels concurrently. Returns only after
/// every claimed morsel has finished, including those run by helpers.
///
/// Deadlock-free by construction: completion never depends on pool capacity
/// (the caller alone can finish the batch), and helpers that start after the
/// counter is drained exit immediately. Determinism is the caller's job: fn
/// must write only to its own morsel's slot, so the merge order is fixed by
/// morsel index regardless of which thread ran which morsel.
inline void RunMorsels(ThreadPool* pool, int extra_workers, size_t num_morsels,
                       const std::function<void(size_t)>& fn) {
  if (num_morsels == 0) return;
  std::atomic<size_t> next{0};
  auto drain = [&next, num_morsels, &fn] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < num_morsels;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  if (pool == nullptr || extra_workers <= 0 || num_morsels == 1) {
    drain();
    return;
  }
  const size_t helpers =
      std::min<size_t>(static_cast<size_t>(extra_workers), num_morsels - 1);
  // Per-batch join state: helpers decrement `live` when their drain returns;
  // the caller waits for zero after finishing its own drain. The state lives
  // on this stack frame, which outlives every helper because of that wait.
  Mutex mu;
  CondVar all_done;
  size_t live = helpers;
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([&drain, &mu, &all_done, &live] {
      drain();
      MutexLock lock(&mu);
      if (--live == 0) all_done.NotifyAll();
    });
  }
  drain();
  MutexLock lock(&mu);
  while (live > 0) all_done.Wait(mu);
}

}  // namespace fastqre
