// FastQre: the end-to-end Query Reverse Engineering driver (Figure 6).
//
// Given a database D and an output table R_out, Reverse() finds a
// generating CPJ query Q_gen with Q_gen(D) = R_out (exact variant) or
// Q_gen(D) ⊇ R_out (superset variant), wiring together the four framework
// modules: Preprocessing (parsing, column cover, index creation), Candidate
// Query Generation (CGMs, ranked mappings, walk discovery, ranked walk
// composition), Query Validation (probing, indirect coherence, progressive
// evaluation) and Feedback.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query.h"
#include "qre/options.h"
#include "qre/stats.h"
#include "storage/database.h"

namespace fastqre {

class CancellationToken;
class ResourceGovernor;
class SubplanCache;
class ThreadPool;
class WalkCache;

/// \brief Optional explanation of a Reverse() run (QreOptions::collect_trace):
/// the ranked column mappings that were tried and every candidate query that
/// was validated, with its verdict — the paper's decision process, replayable.
struct QreTrace {
  /// Human-readable descriptions of the column mappings, in rank order.
  std::vector<std::string> mappings;

  struct Candidate {
    /// Index into `mappings` of the mapping this candidate came from.
    int mapping_index;
    std::string sql;
    double dc;
    double alpha_cost;
    /// "generating", "missing-tuples", "extra-tuples", "incoherent-walk",
    /// "budget-exhausted" (the run stopped), "error".
    std::string outcome;
  };
  /// In candidate rank order at every thread count: a candidate is traced
  /// when its outcome is released in rank order (DESIGN.md §8). Speculative
  /// candidates a parallel run cancels are counted in
  /// QreStats::candidates_cancelled, not traced.
  std::vector<Candidate> candidates;

  /// Multi-line rendering for logs / the CLI.
  std::string ToString() const;
};

/// \brief Result of a Reverse() run.
struct QreAnswer {
  /// True if a generating query was found; the remaining query fields are
  /// only meaningful then.
  bool found = false;
  /// Why the search ended without an answer ("search space exhausted...",
  /// "time budget exceeded", "cancelled", "memory budget exceeded", ...).
  /// Empty when found.
  std::string failure_reason;

  PJQuery query;
  /// SQL text of the found query.
  std::string sql;
  /// Number of table instances / joins in the found query.
  size_t num_instances = 0;
  size_t num_joins = 0;

  QreStats stats;

  /// Present iff QreOptions::collect_trace was set.
  QreTrace trace;
};

/// \brief The FastQRE engine.
///
/// Reverse()/ReverseAll() are const and thread-safe: the Database's lazy
/// caches build each entry exactly once under internal synchronization, so
/// concurrent Reverse() calls may share one Database instance. Each column
/// mapping's candidates go through one rank-ordered validation loop: they
/// are validated inline on the calling thread (validation_threads == 1) or
/// as tasks on the engine's thread pool, and their outcomes are released
/// strictly in rank order. Answers are therefore deterministic
/// (byte-identical SQL) regardless of thread count — see DESIGN.md §8 for
/// the rank-barrier protocol.
class FastQre {
 public:
  /// `db` must outlive the engine.
  explicit FastQre(const Database* db, QreOptions options = QreOptions());
  ~FastQre();

  FastQre(FastQre&&) noexcept;
  FastQre& operator=(FastQre&&) noexcept;

  const QreOptions& options() const { return options_; }

  /// Reverse-engineers a generating query for `rout`. `rout` may be encoded
  /// against any dictionary; it is re-encoded and row-deduplicated (set
  /// semantics) internally. Returns an error Status only for invalid input
  /// (empty table, zero columns); an unsuccessful search returns found =
  /// false with a reason and full statistics.
  Result<QreAnswer> Reverse(const Table& rout) const;

  /// Like Reverse() but keeps enumerating after the first answer, returning
  /// up to `limit` distinct generating queries in discovery order (the
  /// "enumerate other generating queries" interface of Section 3). When the
  /// search stops early (time budget, Cancel(), memory exhaustion), the
  /// answers already found are returned followed by one unfound entry whose
  /// failure_reason records why the tail was truncated.
  Result<std::vector<QreAnswer>> ReverseAll(const Table& rout, int limit) const;

  /// Observer of answers as they are accepted (the server's streaming hook).
  /// Invoked with each entry exactly as it is appended to the eventual
  /// ReverseAll result — found answers carry a full job-scoped stats
  /// snapshot, and the one possible unfound tail entry carries the
  /// failure_reason. Because acceptance happens under the rank barrier
  /// (DESIGN.md §8), the streamed order equals the final rank order and the
  /// streamed SQL is byte-identical to the batch result at any thread count.
  using AnswerCallback = std::function<void(const QreAnswer&)>;

  /// ReverseAll with a streaming observer: `on_answer` (may be empty) fires
  /// on the search thread for every entry of the returned vector, in order,
  /// at the moment the entry is proved. The callback must not call back
  /// into this engine (other than Cancel(), which is always safe).
  Result<std::vector<QreAnswer>> ReverseAll(const Table& rout, int limit,
                                            const AnswerCallback& on_answer)
      const;

  /// Cooperatively cancels every in-flight and future Reverse()/ReverseAll()
  /// call on this engine, from any thread. The search stops at its next
  /// interrupt poll and returns the answers found so far with
  /// failure_reason "cancelled" on the truncated tail. Sticky: construct a
  /// fresh engine to search again (which also makes a retried run
  /// byte-identical — the engine carries no partial-search state).
  void Cancel() const;

 private:
  const Database* db_;
  QreOptions options_;
  // Walk-materialization cache (DESIGN.md §9), shared across Reverse()
  // calls and validation workers; null when the budget is 0. Internally
  // synchronized, so the const/thread-safety contract above still holds.
  // shared_ptr because the governor's pressure hook holds a reference: the
  // cache must outlive any late charge arriving through the database's
  // governor attachment.
  std::shared_ptr<WalkCache> walk_cache_;
  // Cross-candidate subplan memoization cache (DESIGN.md §13), shared the
  // same way; null when QreOptions::subplan_cache_budget_bytes is 0.
  // shared_ptr for the same pressure-hook lifetime reason as walk_cache_.
  std::shared_ptr<SubplanCache> subplan_cache_;
  // Cancellation + resource governing (DESIGN.md §11). Both are created in
  // the constructor and never null in a live engine (moved-from engines
  // hold nulls and must not be used, as usual).
  std::shared_ptr<CancellationToken> cancel_token_;
  std::shared_ptr<ResourceGovernor> governor_;
  // The engine's one thread pool, built in the constructor and shared by
  // every mapping of every concurrent Reverse() call. It runs validation
  // tasks (DESIGN.md §8) and morsel helpers (DESIGN.md §12), so it has
  // validation_threads threads when that is > 1, plus
  // intra_candidate_threads - 1; null when that sum is 0. A validation task
  // never waits for a queued task (RunMorsels waits only for helpers that
  // started), so sharing the pool can delay but never deadlock a candidate.
  std::unique_ptr<ThreadPool> pool_;
  // Deferred QreOptions::fault_spec / FASTQRE_FAULTS parse error, reported
  // by the next ReverseAll() call (constructors cannot return Status).
  Status fault_spec_error_;
};

}  // namespace fastqre
