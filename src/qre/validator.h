// Query Validation module (Section 4.5): given a candidate query Q, decide
// whether Q(D) = R_out (exact) or Q(D) ⊇ R_out (superset), trying to
// dismiss Q as cheaply as possible first:
//
//  1. Probing queries (basic mechanism of Section 4.1): bind all projection
//     columns to a sampled R_out tuple and ask for one result row (a missed
//     tuple dismisses Q and, via feedback, its whole generation subtree);
//     in exact mode, a partial probe binding only the first projection
//     column streams a bounded prefix looking for tuples outside R_out.
//  2. Indirect column coherence: each walk's join-path subquery must cover
//     pi(R_out) on the walk's endpoint columns; verdicts are memoized in
//     Feedback and shared across candidates (lazy, per Section 4.5).
//  3. Progressive full evaluation: stream Q(D) one tuple at a time and stop
//     at the first contradiction. In exact mode with probing, the extras
//     check streams at most kExtrasStreamRowCap examined rows; a prefix that
//     ends undecided falls back to one block evaluation of Q (with SIP at
//     every join step, DESIGN.md §13), guarded to stop at the first tuple
//     outside R_out.
#pragma once

#include <functional>

#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/composer.h"
#include "qre/feedback.h"
#include "qre/mapping.h"
#include "qre/options.h"
#include "qre/stats.h"
#include "qre/walk_cache.h"
#include "qre/walks.h"
#include "storage/database.h"

namespace fastqre {

/// \brief Why a candidate was accepted or dismissed.
enum class CandidateOutcome {
  kGenerating,       // Q is a generating query
  kMissingTuples,    // some R_out tuple not in Q(D)  => subtree is dead
  kExtraTuples,      // some Q(D) tuple not in R_out (exact variant only)
  kIncoherentWalk,   // a walk failed indirect coherence => walk is dead
  kBudgetExhausted,  // the time budget expired mid-validation
  kError,            // execution error (malformed candidate)
};

const char* CandidateOutcomeToString(CandidateOutcome outcome);

/// \brief Validates candidates against one (R_out, mapping) pair.
class Validator {
 public:
  /// `walk_cache` (may be null) enables walk substitution: materialized walk
  /// chains are replaced with virtual joins over cached reachability
  /// relations (DESIGN.md §9); verdicts and emitted answers are unchanged.
  /// `budget_exceeded` (may be empty) is polled during long streams.
  /// `policy` selects the probe kernels and intra-candidate morsel dispatch
  /// (DESIGN.md §12); verdicts are identical for every policy.
  Validator(const Database* db, const Table* rout, const TupleSet* rout_set,
            const ColumnMapping* mapping, const std::vector<Walk>* walks,
            const QreOptions* options, Feedback* feedback, QreStats* stats,
            WalkCache* walk_cache = nullptr,
            std::function<bool()> budget_exceeded = {},
            ExecPolicy policy = {});

  /// Runs the dismissal cascade and, if needed, the full check.
  CandidateOutcome Validate(const CandidateQuery& candidate);

 private:
  // The executable form of one candidate: its query with every cached walk's
  // intermediate chain replaced by a virtual join, plus the cache pins that
  // keep those relations alive (eviction-safe) for the candidate's lifetime.
  // With no cache (or nothing materialized), query == candidate.query.
  struct Execution {
    PJQuery query;
    std::vector<VirtualJoin> vjoins;
    std::vector<WalkCache::Handle> pins;
  };
  Execution PrepareExecution(const CandidateQuery& candidate);

  CandidateOutcome ProbeCheck(const Execution& exec);
  /// Checks (and memoizes) indirect coherence of one walk; true = coherent.
  bool WalkCoherent(int walk_id);
  /// Coherence of a materialized walk straight off its cached relation; no
  /// subquery execution. `verdict` is set iff the cached check applies.
  bool TryCachedCoherence(const Walk& walk, bool* verdict);
  /// Establishes R_out ⊆ Q(D) by point-probing every R_out tuple
  /// (kGenerating = containment holds).
  CandidateOutcome AllTupleProbe(const Execution& exec);
  CandidateOutcome FullCheck(const CandidateQuery& candidate,
                             const Execution& exec);
  /// Rules out tuples of Q(D) outside R_out once R_out ⊆ Q(D) holds: a
  /// bounded stream first, the block path only when it ends undecided.
  CandidateOutcome ExtrasCheck(const CandidateQuery& candidate,
                               const Execution& exec);

  bool BudgetExceeded() const {
    return budget_exceeded_ && budget_exceeded_();
  }

  const Database* db_;
  const Table* rout_;
  const TupleSet* rout_set_;
  const ColumnMapping* mapping_;
  const std::vector<Walk>* walks_;
  const QreOptions* options_;
  Feedback* feedback_;
  QreStats* stats_;
  WalkCache* walk_cache_;
  std::function<bool()> budget_exceeded_;
  ExecPolicy policy_;

  // Rows streamed by the partial probe before giving up (keeps the probe a
  // quick check even for unselective first columns).
  static constexpr uint64_t kPartialProbeRowCap = 256;
  // Rows the extras stream examines before it falls back to the block path:
  // one interrupt-poll stride, the first point the cursor can stop at.
  static constexpr uint64_t kExtrasStreamRowCap = kInterruptPollMask + 1;
};

}  // namespace fastqre
