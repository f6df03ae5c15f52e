// Execution policy for one candidate: morsel-driven intra-candidate
// parallelism and sideways information passing (DESIGN.md §12-13).
//
// The policy travels from QreOptions through the validator into the block
// executor and the pipelined cursor. Every combination of its knobs yields
// byte-identical results — morsels are merged in morsel-index order and
// filters only drop rows that cannot join — so the policy only ever changes
// how fast a candidate executes, never what the search answers.
#pragma once

#include <cstddef>
#include <memory>

namespace fastqre {

class ResourceGovernor;
class SubplanCache;
class ThreadPool;

/// \brief Default driving-relation tuples per morsel: large enough that the
/// per-morsel scheduling and interrupt-poll cost is amortized away, small
/// enough that a deadline or Cancel() lands within a few thousand rows.
inline constexpr size_t kDefaultMorselSize = 2048;

/// \brief How a candidate's joins execute.
struct ExecPolicy {
  /// Retired: nothing in the engine reads it, and every probe runs the
  /// batched kernel. It stays only because the repo benchmark
  /// (perfbench/replay.cc) still assigns it; delete it together with that
  /// assignment.
  bool batch_probes = true;

  /// Total workers (including the calling thread) executing one candidate's
  /// morsels; <= 1 keeps execution on the calling thread.
  int intra_threads = 1;

  /// Driving-relation tuples per morsel — also the block executor's
  /// interrupt-poll granularity.
  size_t morsel_size = kDefaultMorselSize;

  /// Smallest driving relation worth dispatching to the pool; below it the
  /// scheduling overhead exceeds the win and morsels stay on the caller.
  size_t intra_threshold = 4096;

  /// Shared worker pool for morsel dispatch; not owned, may be null (serial).
  ThreadPool* pool = nullptr;

  /// Sideways information passing (DESIGN.md §13): push per-(table, column)
  /// presence bitmaps of future join partners into scan and probe steps, so
  /// rows provably absent from every later endpoint never enter an
  /// intermediate relation. Semantics-preserving — surviving rows keep their
  /// visit order, so results stay byte-identical. Off = ablation axis (E15).
  bool use_sip = true;

  /// Retired and unread; only perfbench/replay.cc still assigns it.
  SubplanCache* subplan_cache = nullptr;

  /// The governor charged (and polled for injected faults) for
  /// candidate-local execution state — the driving engine's own accounting
  /// identity. The Database's attached governor is NOT used for this: that
  /// attachment is last-attach-wins across engines sharing the database, so
  /// a concurrently constructed engine (possibly with a tiny budget) would
  /// have its ladder refuse another engine's charges and silently dismiss
  /// its candidates. Null falls back to the database attachment, for
  /// standalone executor use outside an engine.
  std::shared_ptr<ResourceGovernor> governor;

  /// Morsels actually go to the pool only when all three gates agree.
  bool WantsParallel(size_t driving_rows) const {
    return intra_threads > 1 && pool != nullptr &&
           driving_rows >= intra_threshold;
  }

  /// Morsel size clamped away from 0 (a 0 would loop forever).
  size_t MorselSize() const { return morsel_size == 0 ? 1 : morsel_size; }
};

}  // namespace fastqre
