// Pipelined PJ-query execution with a get-next interface.
//
// This implements the "Progressive Query Evaluation" substrate of Section
// 4.1/4.5: instead of materializing Q(D) as a block, QueryCursor::Next()
// yields one projected result row at a time (backtracking index-nested-loop
// over a connected traversal of the query graph), so the validator can stop
// at the first tuple contradicting R_out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/interrupt.h"
#include "common/result.h"
#include "engine/exec_policy.h"
#include "engine/query.h"
#include "storage/database.h"

namespace fastqre {

// kInterruptPollMask historically lived here; it moved to common/interrupt.h
// when the storage layer's index builds became interruptible (storage must
// not depend on engine). The include above keeps every existing user.

/// \brief Reachability map of a materialized walk chain: left-endpoint join
/// value -> sorted distinct right-endpoint join values reachable across the
/// walk's intermediate tables (see qre/walk_cache.h).
using ReachMap = std::unordered_map<ValueId, std::vector<ValueId>>;

/// \brief A walk-substitution join: instances `a` and `b` are connected not
/// by physical intermediate instances but by a precomputed reachability
/// relation — row of a joins row of b iff b's col_b value is in
/// a_to_b[a's col_a value]. Both orientations are provided so the planner
/// can drive whichever endpoint is placed later. The maps must outlive the
/// cursor (the walk cache pins them for the candidate's lifetime).
struct VirtualJoin {
  InstanceId a;
  ColumnId col_a;
  InstanceId b;
  ColumnId col_b;
  const ReachMap* a_to_b;
  const ReachMap* b_to_a;
  // Key-domain bitmaps (sideways information passing, DESIGN.md §13): bit v
  // set iff v is a key of the corresponding map — a_domain for a_to_b,
  // b_domain for b_to_a. May be null (no SIP for this join). The planner
  // pushes the bound-side domain into the *earlier* endpoint's step so rows
  // that reach nothing are skipped before any deeper binding is attempted.
  const BitmapFilter* a_domain = nullptr;
  const BitmapFilter* b_domain = nullptr;
};

/// \brief Streaming evaluator of a connected PJQuery.
///
/// The plan orders instances greedily, most-selective-first (instances with
/// selections, then most incoming joins, then smallest table), probes a hash
/// index on each subsequent instance's incoming join + selection columns,
/// and applies same-instance joins as row filters.
class QueryCursor {
  // Constructor gate: only Create() can name PrivateTag, yet the constructor
  // stays public so std::make_unique works (no naked `new`; see
  // tools/lint_invariants.py rule naked-new).
  struct PrivateTag {
    explicit PrivateTag() = default;
  };

 public:
  explicit QueryCursor(PrivateTag) {}

  /// Builds the execution plan (constructing any missing indexes through the
  /// database's index cache). Fails if the query graph is empty or
  /// disconnected. `interrupt` (may be empty) is polled every few thousand
  /// examined rows; when it returns true, Next() stops and interrupted()
  /// becomes true — a single Next() call over a pathological join space can
  /// otherwise run unboundedly.
  /// `virtual_joins` substitutes materialized walks for join paths: each
  /// entry connects two instances of `query` through a precomputed
  /// reachability relation instead of physical intermediates; connectivity
  /// is checked over physical and virtual joins combined. A virtual join
  /// whose later-planned endpoint has no physical index key drives that
  /// step's candidate rows from the cached endpoint set (one index probe
  /// per reachable value); otherwise it is applied as a row filter.
  /// Reach-driven candidate lists are built with HashIndex::LookupBatch over
  /// the cached value span, one `policy` morsel at a time.
  static Result<std::unique_ptr<QueryCursor>> Create(
      const Database& db, const PJQuery& query,
      std::function<bool()> interrupt = {},
      const std::vector<VirtualJoin>& virtual_joins = {},
      const ExecPolicy& policy = {});

  /// Produces the next *raw* result row (one ValueId per projection, in
  /// projection order). Returns false at end-of-results. Rows are NOT
  /// deduplicated; callers wanting set semantics dedupe as they stream.
  bool Next(std::vector<ValueId>* row);

  /// Re-binds the constants of the *last* `n` selections added to the query
  /// this cursor was created from (in AddSelection order) and resets
  /// iteration, so one planned cursor serves a whole batch of point probes —
  /// the plan/index/alloc work of Create() is paid once per batch instead of
  /// once per probe. rows_examined() keeps accumulating across rebinds;
  /// interrupted() is cleared (the caller decides whether to continue).
  /// Requires n <= the number of selections at Create time.
  void Rebind(const ValueId* values, size_t n);

  /// Number of selection constants Rebind() can replace.
  size_t num_rebindable() const { return sel_slots_.size(); }

  /// Number of candidate rows examined so far (work metric for stats).
  uint64_t rows_examined() const { return rows_examined_; }

  /// Rows skipped by sideways-information-passing filters (subset of
  /// rows_examined(); each passed every local filter but was provably absent
  /// from a later join partner).
  uint64_t sip_rows_skipped() const { return sip_skipped_; }

  /// True if the last Next() returned false because the interrupt callback
  /// fired (result stream is then *incomplete*, not exhausted).
  bool interrupted() const { return interrupted_; }

 private:
  struct KeySource {
    // Probe-key component: value of `column` in the row currently bound at
    // plan position `from_pos`, or the constant `constant` if from_pos < 0.
    int from_pos;
    ColumnId column;
    ValueId constant;
  };
  struct ReachSpec {
    // Virtual-join constraint: this step's `local_col` value must be in
    // map[u], where u is the value of `from_col` in the row bound at the
    // earlier plan position `from_pos`.
    int from_pos;
    ColumnId from_col;
    ColumnId local_col;
    const ReachMap* map;
  };
  struct Step {
    InstanceId instance;
    const Table* table;
    // Index access (null for the scan at position 0 without selections).
    const HashIndex* index = nullptr;
    std::vector<KeySource> key_sources;
    // Same-instance equality filters col_a = col_b.
    std::vector<std::pair<ColumnId, ColumnId>> self_filters;
    // Leftover constant filters col = value.
    std::vector<std::pair<ColumnId, ValueId>> const_filters;
    // Sideways-information-passing filters: a row of this step is skipped
    // when its `first` column's value is provably absent from a later join
    // partner's join column (`second`: that column's presence bitmap, or a
    // virtual join's bound-side key domain). Skip-only-provably-absent: a
    // failing row cannot complete to any full binding, so removing it leaves
    // the surviving result stream byte-identical (DESIGN.md §13).
    std::vector<std::pair<ColumnId, const BitmapFilter*>> sip_filters;
    // Virtual-join row filters (walk substitution).
    std::vector<ReachSpec> reach_filters;
    // When the step has no physical index key, one virtual join drives the
    // candidate list instead: rows = ∪_{v ∈ map[u]} reach_index[local_col=v].
    std::optional<ReachSpec> reach_driver;
    const HashIndex* reach_index = nullptr;
  };

  bool RowPasses(const Step& step, RowId row) const;
  // Prepares the candidate row list for plan position `pos` given the rows
  // bound at earlier positions (may set interrupted_ when a reach-driven
  // candidate build trips the interrupt callback).
  void InitCandidates(size_t pos);

  const Database* db_ = nullptr;
  ExecPolicy policy_;
  std::vector<Step> steps_;
  std::vector<InstanceColumn> projections_;
  // projection -> (plan position, column)
  std::vector<std::pair<size_t, ColumnId>> proj_slots_;
  // selection i -> (plan position, key_sources index) of its constant, in
  // the order selections were added to the query; Rebind() swaps these.
  std::vector<std::pair<size_t, size_t>> sel_slots_;
  // Reusable batch-probe scratch for reach-driven candidate builds.
  BatchMatches batch_buf_;

  // Iteration state.
  std::vector<const std::vector<RowId>*> candidates_;  // null => full scan
  // gov: bounded — per-cursor reach-driven lists, capped by the walk
  // relation's (already charged) endpoint sets; freed with the cursor.
  std::vector<std::vector<RowId>> owned_candidates_;
  std::vector<size_t> cursor_;   // next candidate index (or next RowId if scan)
  std::vector<RowId> bound_;     // currently bound row per position
  // gov: bounded — plan-depth probe-key scratch, O(instances) entries.
  std::vector<std::vector<ValueId>> key_buf_;
  int depth_ = -1;               // deepest position currently bound
  bool started_ = false;
  bool done_ = false;
  bool interrupted_ = false;
  std::function<bool()> interrupt_;
  uint64_t rows_examined_ = 0;
  // Mutable: bumped inside the const row filter (RowPasses), the one place
  // that knows a rejection was SIP's rather than a local predicate's.
  mutable uint64_t sip_skipped_ = 0;
};

/// \brief Materializes the distinct projected rows of `query` into a new
/// table named `name` (column names out0, out1, ... unless `column_names`
/// given). Convenience for tests, examples and workload generation.
Result<Table> ExecuteToTable(const Database& db, const PJQuery& query,
                             const std::string& name,
                             const std::vector<std::string>& column_names = {});

}  // namespace fastqre
