// Minimal threading primitives for the engine and the service:
//
//  * ThreadPool — a fixed set of workers draining an unbounded task queue.
//    FastQre owns one and runs every piece of its parallel work on it:
//    validation tasks across candidates (DESIGN.md §8) and morsel helpers
//    inside one candidate (DESIGN.md §12). The service's JobManager owns
//    another for its jobs. There is no pool-wide Wait(): a shared pool has
//    no quiescent point, so each user joins on its own outstanding count,
//    and the destructor drains whatever is still queued.
//  * RunMorsels — a per-batch fork/join over a shared morsel counter. The
//    caller drains the batch itself and then waits only for helpers that
//    already started, so a batch completes even when every pool thread is
//    busy with other work.
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
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace fastqre {

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
    }
    work_ready_.NotifyOne();
  }

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
    }
  }

  Mutex mu_;
  CondVar work_ready_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// \brief Runs fn(morsel_index) for every index in [0, num_morsels), claiming
/// indexes from a shared atomic counter: the calling thread always drains the
/// counter itself, and up to `extra_workers` helper tasks are submitted to
/// `pool` (when non-null) to steal morsels concurrently. Returns once every
/// morsel has finished, including those run by helpers.
///
/// Deadlock-free by construction: completion never depends on pool capacity.
/// The caller alone can finish the batch, and afterwards it waits only for
/// helpers that already started, each of which is running a morsel. The
/// batch state is shared with the helpers, so a helper that starts after
/// the caller returned finds the batch closed and exits without touching
/// `fn` or the caller's frame. Determinism is the caller's job: fn must
/// write only to its own morsel's slot, so the merge order is fixed by
/// morsel index regardless of which thread ran which morsel.
inline void RunMorsels(ThreadPool* pool, int extra_workers, size_t num_morsels,
                       const std::function<void(size_t)>& fn) {
  if (num_morsels == 0) return;
  if (pool == nullptr || extra_workers <= 0 || num_morsels == 1) {
    for (size_t i = 0; i < num_morsels; ++i) fn(i);
    return;
  }
  struct Batch {
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar idle;
    size_t running GUARDED_BY(mu) = 0;   // helpers draining the counter
    bool closed GUARDED_BY(mu) = false;  // the caller finished draining
  };
  auto batch = std::make_shared<Batch>();
  // Lives in the caller's frame, like `fn`: a helper may call it only after
  // registering as running while the batch is still open.
  auto drain = [num_morsels, &fn](Batch* b) {
    for (size_t i = b->next.fetch_add(1, std::memory_order_relaxed);
         i < num_morsels; i = b->next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  const size_t helpers =
      std::min<size_t>(static_cast<size_t>(extra_workers), num_morsels - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([batch, &drain] {
      Batch* b = batch.get();
      {
        MutexLock lock(&b->mu);
        if (b->closed) return;
        ++b->running;
      }
      drain(b);
      MutexLock lock(&b->mu);
      if (--b->running == 0) b->idle.NotifyAll();
    });
  }
  Batch* b = batch.get();
  drain(b);
  MutexLock lock(&b->mu);
  b->closed = true;
  while (b->running > 0) b->idle.Wait(b->mu);
}

}  // namespace fastqre
