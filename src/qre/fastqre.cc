#include "qre/fastqre.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "common/fault_injection.h"
#include "common/resource_governor.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/compare.h"
#include "engine/subplan_cache.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/composer.h"
#include "qre/feedback.h"
#include "qre/mapping.h"
#include "qre/validator.h"
#include "qre/walk_cache.h"
#include "qre/walks.h"

namespace fastqre {

namespace {

// Re-encodes `rout` against the database dictionary (if needed) and
// collapses duplicate rows: the paper's pi/⊆ machinery is set-semantics.
Result<Table> NormalizeRout(const Database& db, const Table& rout) {
  Table out(rout.name(), db.dictionary());
  for (size_t c = 0; c < rout.num_columns(); ++c) {
    FASTQRE_RETURN_NOT_OK(
        out.AddColumn(rout.column(c).name(), rout.column(c).type()));
  }
  const bool same_dict = rout.dictionary() == db.dictionary();
  // gov: bounded — one set of R_out's rows (small by problem definition),
  // freed at scope exit.
  TupleSet seen;
  seen.reserve(rout.num_rows());
  // poll: bounded — one pass over R_out's rows (small by problem
  // definition); normalization finishes before any budget can expire.
  for (RowId r = 0; r < rout.num_rows(); ++r) {
    std::vector<ValueId> ids(rout.num_columns());
    if (same_dict) {
      ids = rout.RowIds(r);
    } else {
      for (size_t c = 0; c < rout.num_columns(); ++c) {
        ids[c] = db.dictionary()->Intern(
            rout.dictionary()->Get(rout.column(c).at(r)));
      }
    }
    if (seen.insert(ids).second) out.AppendRowIds(ids);
  }
  return out;
}

// ---- Rank-ordered validation (DESIGN.md §8) ---------------------------------
//
// The calling thread submits a mapping's candidates in rank order, tagged
// with a sequence number, and takes their outcomes back in that order. With
// QreOptions::validation_threads == 1, Submit() validates inline; with
// N > 1 it submits each candidate as a task to the engine's thread pool,
// keeping at most 3N of them outstanding. The tasks share the thread-safe
// Database caches and Feedback. Releasing in rank order is the rank
// barrier: a generating verdict at rank s is acted on only after every
// rank < s completed non-generating, so the answers are byte-identical to a
// serial run's. Once the `need`-th generating rank f is known, ranks > f
// are cancelled: skipped when their task starts, or interrupted in flight
// through the executor's interrupt callback. Shared feedback only dismisses
// provably non-generating subtrees, so it reorders work, never answers.

// One validated (or cancelled) candidate, tagged with its rank.
struct RankedOutcome {
  uint64_t seq = 0;
  CandidateQuery cand;
  CandidateOutcome outcome = CandidateOutcome::kError;
};

class RankedValidation {
 public:
  using Interrupt = std::function<bool()>;
  // Validates one candidate, polling the interrupt.
  using ValidateFn =
      std::function<CandidateOutcome(const CandidateQuery&, Interrupt)>;

  // Cancels ranks below the `need_answers`-th generating one. `pool` runs
  // the validation tasks when validation_threads > 1 and must then be
  // non-null. Every pointer must outlive this object.
  RankedValidation(const QreOptions* options, size_t need_answers,
                   ValidateFn validate, std::function<bool()> budget_exceeded,
                   Feedback* feedback, QreStats* stats,
                   ResourceGovernor* governor, ThreadPool* pool)
      : options_(options),
        need_answers_(need_answers),
        validate_(std::move(validate)),
        budget_exceeded_(std::move(budget_exceeded)),
        feedback_(feedback),
        stats_(stats),
        governor_(governor),
        pool_(options->validation_threads > 1 ? pool : nullptr),
        max_outstanding_(3 * static_cast<size_t>(
                                 std::max(1, options->validation_threads))) {}

  // Tasks hold `this`; the destructor waits for them.
  RankedValidation(const RankedValidation&) = delete;
  RankedValidation& operator=(const RankedValidation&) = delete;
  ~RankedValidation() { Finish(); }

  // False once further candidates cannot change the answers: the run
  // stopped, or the need_answers-th generating rank is known.
  bool accepting() const {
    return !hard_abort_.load(std::memory_order_relaxed) &&
           cancel_floor_.load(std::memory_order_relaxed) == kNoFloor;
  }

  // Validates candidate `seq` — the next rank — inline, or submits it to
  // the pool once fewer than 3N submitted ranks are still incomplete (the
  // back-pressure that keeps composition close to validation).
  void Submit(uint64_t seq, CandidateQuery cand) {
    ++submitted_;
    if (pool_ == nullptr) {
      Validate(RankedOutcome{seq, std::move(cand)});
      return;
    }
    {
      MutexLock lock(&mu_);
      while (outstanding_ >= max_outstanding_) completed_.Wait(mu_);
      ++outstanding_;
    }
    // std::function needs a copyable callable, hence the shared_ptr.
    auto ro =
        std::make_shared<RankedOutcome>(RankedOutcome{seq, std::move(cand)});
    pool_->Submit([this, ro] {
      // Fault site "parallel-worker": fires once per validation task, so a
      // cancel/delay schedule can target the exact task that races the
      // rank barrier (DESIGN.md §11).
      if (governor_ != nullptr) governor_->FaultPoint("parallel-worker");
      Validate(std::move(*ro));
    });
  }

  // Moves the outcome of the next unreleased rank into `out`. With `wait`,
  // blocks until that rank completes. False if it has not completed (no
  // `wait`) or every submitted rank has already been released.
  bool Release(RankedOutcome* out, bool wait) {
    if (released_ == submitted_) return false;
    MutexLock lock(&mu_);
    // Ranks leave in order, so the next one is the smallest completed key.
    while (wait && (done_.empty() || done_.begin()->first != released_)) {
      completed_.Wait(mu_);
    }
    if (done_.empty() || done_.begin()->first != released_) return false;
    *out = std::move(done_.begin()->second);
    done_.erase(done_.begin());
    ++released_;
    return true;
  }

  // Waits for every submitted task; ranks that became moot finish at once.
  // Only this object's tasks count: the pool is shared. Idempotent.
  void Finish() {
    MutexLock lock(&mu_);
    while (outstanding_ > 0) completed_.Wait(mu_);
  }

 private:
  static constexpr uint64_t kNoFloor = std::numeric_limits<uint64_t>::max();

  // Validates `ro` unless its rank is moot, records the verdict's side
  // effects, and hands the outcome to the rank frontier.
  void Validate(RankedOutcome ro) {
    const uint64_t seq = ro.seq;
    auto moot = [this, seq] {
      return hard_abort_.load(std::memory_order_relaxed) ||
             seq > cancel_floor_.load(std::memory_order_relaxed);
    };
    auto interrupt = [&] { return moot() || budget_exceeded_(); };
    ro.outcome = moot() ? CandidateOutcome::kBudgetExhausted
                        : validate_(ro.cand, interrupt);
    if (ro.outcome == CandidateOutcome::kBudgetExhausted) {
      if (budget_exceeded_()) {
        hard_abort_.store(true, std::memory_order_relaxed);  // run stopped
      } else {
        ++stats_->candidates_cancelled;  // a better-ranked answer won
      }
    } else {
      ++stats_->candidates_validated;
      if (ro.outcome == CandidateOutcome::kMissingTuples &&
          options_->use_feedback_pruning && !ro.cand.walk_ids.empty()) {
        feedback_->AddDeadSet(ro.cand.walk_ids);
      }
    }
    // The task's last touch of `this`: Finish() may return, and this object
    // die, as soon as the lock is released.
    MutexLock lock(&mu_);
    if (ro.outcome == CandidateOutcome::kGenerating) {
      generating_.insert(seq);
      // The need_answers-th smallest generating rank only ever moves down.
      if (generating_.size() >= need_answers_) {
        cancel_floor_.store(*std::next(generating_.begin(), need_answers_ - 1),
                            std::memory_order_relaxed);
      }
    }
    done_.emplace(seq, std::move(ro));
    if (pool_ != nullptr) --outstanding_;
    completed_.NotifyAll();
  }

  const QreOptions* options_;
  const size_t need_answers_;
  const ValidateFn validate_;
  const std::function<bool()> budget_exceeded_;
  Feedback* feedback_;
  QreStats* stats_;
  ResourceGovernor* governor_;
  ThreadPool* const pool_;  // null: validate inline
  const size_t max_outstanding_;

  // Ranks strictly greater than cancel_floor_ can no longer affect the
  // answers and are cancelled.
  std::atomic<uint64_t> cancel_floor_{kNoFloor};
  std::atomic<bool> hard_abort_{false};  // the run itself stopped

  Mutex mu_;
  CondVar completed_;
  // The rank frontier: completed outcomes not yet released, by rank.
  std::map<uint64_t, RankedOutcome> done_ GUARDED_BY(mu_);
  std::set<uint64_t> generating_ GUARDED_BY(mu_);
  // Submitted pool tasks that have not completed.
  size_t outstanding_ GUARDED_BY(mu_) = 0;

  // Calling thread only.
  uint64_t submitted_ = 0;
  uint64_t released_ = 0;
};

}  // namespace

std::string QreTrace::ToString() const {
  std::string out;
  for (size_t m = 0; m < mappings.size(); ++m) {
    out += StringFormat("mapping #%zu: %s\n", m, mappings[m].c_str());
  }
  for (const auto& c : candidates) {
    out += StringFormat("  [m%d dc=%.0f a=%.2f] %-16s %s\n", c.mapping_index,
                        c.dc, c.alpha_cost, c.outcome.c_str(), c.sql.c_str());
  }
  return out;
}

FastQre::FastQre(const Database* db, QreOptions options)
    : db_(db), options_(std::move(options)) {
  // Fault injection: the option wins; the FASTQRE_FAULTS environment
  // variable is the no-recompile hook for CI matrices. A malformed spec is
  // remembered and reported by the next ReverseAll() call (constructors
  // cannot return Status), so it can never be silently ignored.
  std::string spec = options_.fault_spec;
  if (spec.empty()) {
    const char* env = std::getenv("FASTQRE_FAULTS");
    if (env != nullptr) spec = env;
  }
  std::unique_ptr<FaultInjector> injector;
  if (!spec.empty()) {
    auto parsed = FaultInjector::Parse(spec);
    if (parsed.ok()) {
      injector = std::move(parsed).ValueOrDie();
    } else {
      fault_spec_error_ = parsed.status();
    }
  }
  cancel_token_ = std::make_shared<CancellationToken>();
  governor_ = std::make_shared<ResourceGovernor>(
      options_.memory_budget_bytes, cancel_token_, std::move(injector));
  // One pool for all parallel work: N validation threads when
  // validation_threads = N > 1, plus M - 1 morsel helpers when
  // intra_candidate_threads = M (each batch's dispatching thread is the M-th).
  const int pool_threads =
      (options_.validation_threads > 1 ? options_.validation_threads : 0) +
      std::max(0, options_.intra_candidate_threads - 1);
  if (pool_threads > 0) pool_ = std::make_unique<ThreadPool>(pool_threads);
  if (options_.walk_cache_budget_bytes > 0) {
    walk_cache_ = std::make_shared<WalkCache>(options_.walk_cache_budget_bytes,
                                              options_.walk_cache_admission,
                                              governor_);
  }
  if (options_.subplan_cache_budget_bytes > 0) {
    subplan_cache_ = std::make_shared<SubplanCache>(
        options_.subplan_cache_budget_bytes, options_.subplan_cache_admission,
        governor_);
  }
  if (walk_cache_ != nullptr || subplan_cache_ != nullptr) {
    // Degradation rung 1 (DESIGN.md §11): under memory pressure, first shed
    // optional materializations — walk relations and memoized subplans —
    // down to half their configured budgets. The hook captures the caches
    // weakly — each cache itself holds the governor by shared_ptr, so a
    // shared capture here would be a cycle — and a late charge arriving
    // through the database attachment after a cache died simply finds no
    // hook target.
    std::weak_ptr<WalkCache> wcache = walk_cache_;
    std::weak_ptr<SubplanCache> scache = subplan_cache_;
    governor_->SetPressureHook([wcache, scache] {
      if (std::shared_ptr<WalkCache> c = wcache.lock()) {
        c->ShrinkTo(c->budget_bytes() / 2);
      }
      if (std::shared_ptr<SubplanCache> c = scache.lock()) {
        c->ShrinkTo(c->budget_bytes() / 2);
      }
    });
  }
  db_->AttachGovernor(governor_);
}

FastQre::~FastQre() {
  // Compare-and-clear: only detaches if no newer engine attached since.
  if (db_ != nullptr && governor_ != nullptr) {
    db_->DetachGovernor(governor_.get());
  }
}

FastQre::FastQre(FastQre&&) noexcept = default;

FastQre& FastQre::operator=(FastQre&& other) noexcept {
  if (this != &other) {
    if (db_ != nullptr && governor_ != nullptr) {
      db_->DetachGovernor(governor_.get());
    }
    db_ = other.db_;
    options_ = std::move(other.options_);
    walk_cache_ = std::move(other.walk_cache_);
    subplan_cache_ = std::move(other.subplan_cache_);
    cancel_token_ = std::move(other.cancel_token_);
    governor_ = std::move(other.governor_);
    pool_ = std::move(other.pool_);
    fault_spec_error_ = std::move(other.fault_spec_error_);
  }
  return *this;
}

void FastQre::Cancel() const { cancel_token_->Cancel(); }

Result<QreAnswer> FastQre::Reverse(const Table& rout) const {
  FASTQRE_ASSIGN_OR_RETURN(auto answers, ReverseAll(rout, 1));
  return std::move(answers[0]);
}

Result<std::vector<QreAnswer>> FastQre::ReverseAll(const Table& rout,
                                                   int limit) const {
  return ReverseAll(rout, limit, AnswerCallback());
}

Result<std::vector<QreAnswer>> FastQre::ReverseAll(
    const Table& rout, int limit, const AnswerCallback& on_answer) const {
  if (rout.num_columns() == 0) {
    return Status::InvalidArgument("R_out has no columns");
  }
  if (rout.num_rows() == 0) {
    return Status::InvalidArgument(
        "R_out has no rows; any query with an empty result would generate it");
  }
  if (limit < 1) return Status::InvalidArgument("limit must be >= 1");
  if (!options_.use_batched_probes) {
    return Status::InvalidArgument(
        "use_batched_probes = false is no longer supported: the scalar probe "
        "kernels were removed");
  }
  if (!fault_spec_error_.ok()) return fault_spec_error_;

  QreStats stats;
  // One stop predicate for every phase: deadline, Cancel() and memory
  // exhaustion all funnel through the RunControl (DESIGN.md §11), which
  // records the *first* cause to fire.
  RunControl run(options_.time_budget_seconds, cancel_token_.get(),
                 governor_.get());
  auto budget_exceeded = [&run]() { return run.ShouldStop(); };
  // The validation paths learn "the run stopped" from a boolean; the precise
  // cause lives in the RunControl. The deadline string is the fallback for
  // the pre-governor code paths that only ever stopped on time.
  auto stop_reason = [&run]() {
    std::string reason = run.reason();
    return reason.empty() ? std::string("time budget exceeded") : reason;
  };

  // Intra-candidate execution policy (DESIGN.md §12), shared by every
  // validator this call constructs. Verdicts and answers are identical for
  // every setting; only the morsel dispatch and filtering differ.
  ExecPolicy exec_policy;
  exec_policy.intra_threads = std::max(1, options_.intra_candidate_threads);
  exec_policy.morsel_size =
      static_cast<size_t>(std::max(1, options_.morsel_size));
  exec_policy.intra_threshold =
      static_cast<size_t>(std::max(0, options_.intra_row_threshold));
  exec_policy.pool = pool_.get();
  exec_policy.use_sip = options_.use_sip;
  exec_policy.subplan_cache = subplan_cache_.get();
  // Candidate-local charges go to THIS engine's governor, never the
  // database attachment (which a concurrent engine may have displaced).
  exec_policy.governor = governor_;

  std::vector<QreAnswer> answers;
  // Single append point for the result vector: every entry is streamed to
  // `on_answer` exactly as it is committed, so the streamed sequence is the
  // returned vector (DESIGN.md §15). Both call sites run on this thread
  // after the rank barrier, so the callback never races itself.
  auto publish = [&](QreAnswer a) {
    answers.push_back(std::move(a));
    if (on_answer) on_answer(answers.back());
  };
  auto attach_run_stats = [&](QreAnswer* a) {
    a->stats.walk_cache_bytes = walk_cache_ ? walk_cache_->bytes() : 0;
    // Engine-lifetime tallies snapshotted at answer time (exact per-run
    // totals on a fresh engine, which is how the CLI and benches run).
    if (subplan_cache_ != nullptr) {
      a->stats.subplan_cache_hits = subplan_cache_->hits();
      a->stats.subplan_cache_misses = subplan_cache_->misses();
      a->stats.subplan_cache_evictions = subplan_cache_->evictions();
      a->stats.subplan_cache_bytes = subplan_cache_->bytes();
    }
    a->stats.peak_tracked_bytes = governor_->peak_tracked_bytes();
    a->stats.degradation_events = governor_->degradation_events();
    a->stats.cancelled = run.cause() == StopCause::kCancelled;
    a->stats.total_seconds = run.ElapsedSeconds();
  };
  QreTrace* trace_ptr = nullptr;  // set below once the trace exists
  // Ends the search without discarding progress: the answers already found
  // are returned, followed by one unfound entry whose failure_reason says
  // why the tail was truncated.
  auto aborted = [&](const std::string& reason) {
    QreAnswer a;
    a.found = false;
    a.failure_reason = reason;
    if (trace_ptr != nullptr) a.trace = *trace_ptr;
    a.stats = stats;
    attach_run_stats(&a);
    publish(std::move(a));
    return std::move(answers);
  };

  // ---- Preprocessing -------------------------------------------------------
  FASTQRE_ASSIGN_OR_RETURN(Table norm_rout, NormalizeRout(*db_, rout));
  // gov: bounded — one set copy of R_out (small by problem definition),
  // alive for the whole search.
  const TupleSet rout_set = TableToTupleSet(norm_rout, budget_exceeded);
  if (run.ShouldStop()) return aborted(stop_reason());

  ColumnCover cover = ComputeColumnCover(*db_, norm_rout, options_, &stats);
  if (cover.HasEmptyCover()) {
    return aborted(
        "some R_out column is contained in no database column; no PJ query "
        "can generate R_out");
  }

  CgmSet cgms;
  if (options_.use_cgm_ranking) {
    cgms = DiscoverCgms(*db_, norm_rout, cover, options_, &stats,
                        budget_exceeded, governor_.get());
    // A partially discovered CGM set must not rank mappings: if the stop
    // fired mid-discovery, abort here with the stats gathered so far.
    if (run.ShouldStop()) return aborted(stop_reason());
  }

  // ---- Candidate generation + validation -----------------------------------
  QreTrace trace;
  trace_ptr = &trace;
  MappingEnumerator mappings(db_, &norm_rout, &cover,
                             options_.use_cgm_ranking ? &cgms : nullptr,
                             &options_, budget_exceeded, governor_.get());
  ColumnMapping mapping;
  for (int m = 0; m < options_.max_mappings && mappings.Next(&mapping); ++m) {
    ++stats.mappings_tried;
    if (options_.collect_trace) {
      trace.mappings.push_back(mapping.ToString(*db_, norm_rout));
    }
    if (budget_exceeded()) return aborted(stop_reason());

    std::vector<Walk> walks;
    if (mapping.instances.size() > 1) {
      walks = DiscoverWalks(*db_, mapping, options_);
      stats.walks_discovered += walks.size();
      if (walks.empty()) continue;  // instances cannot be connected
    }

    Feedback feedback(walks.size());
    RankedComposer composer(db_, &mapping, &walks, &options_, &feedback,
                            budget_exceeded);
    auto validate = [&](const CandidateQuery& cand,
                        std::function<bool()> interrupt) {
      Validator validator(db_, &norm_rout, &rout_set, &mapping, &walks,
                          &options_, &feedback, &stats, walk_cache_.get(),
                          std::move(interrupt), exec_policy);
      return validator.Validate(cand);
    };
    const size_t need = static_cast<size_t>(limit) - answers.size();
    RankedValidation validation(&options_, need, validate, budget_exceeded,
                                &feedback, &stats, governor_.get(),
                                pool_.get());

    // Handles one outcome, strictly in rank order: the one place answers
    // are published. Returns false when the mapping's search is over — the
    // limit was reached or the run stopped.
    auto handle = [&](const RankedOutcome& ro) {
      if (options_.collect_trace) {
        trace.candidates.push_back(QreTrace::Candidate{
            m, ro.cand.query.ToSql(*db_), ro.cand.dc, ro.cand.alpha_cost,
            CandidateOutcomeToString(ro.outcome)});
      }
      // A released kBudgetExhausted is always a *global* stop: candidate-
      // local memory refusals surface as kError and dismiss one candidate,
      // and no rank up to the need-th generating one is ever cancelled.
      if (ro.outcome == CandidateOutcome::kBudgetExhausted) return false;
      if (ro.outcome != CandidateOutcome::kGenerating) return true;
      const bool last = static_cast<int>(answers.size()) + 1 >= limit;
      // The answer that reaches the limit waits for the validation tasks to
      // finish, so its stats count every cancelled speculative candidate.
      if (last) validation.Finish();
      QreAnswer a;
      a.found = true;
      a.query = ro.cand.query;
      a.sql = ro.cand.query.ToSql(*db_);
      a.num_instances = ro.cand.query.num_instances();
      a.num_joins = ro.cand.query.joins().size();
      a.trace = trace;
      // Fold the composer counters in before snapshotting the stats.
      a.stats = stats;
      a.stats.candidates_pruned_dead += composer.sets_pruned_dead();
      a.stats.walk_sets_expanded += composer.sets_expanded();
      attach_run_stats(&a);
      publish(std::move(a));
      // Fault site "answer-found": fires once per published answer, so a
      // cancel@n schedule can truncate ReverseAll() after exactly n answers
      // (the truncation-semantics regression tests).
      governor_->FaultPoint("answer-found");
      return !last && !run.ShouldStop();
    };

    // Compose and submit in rank order, releasing every outcome whose rank
    // prefix is complete; then drain the ranks still in flight. A stop ends
    // production, and the drain still releases what completed before it.
    bool open = true;
    RankedOutcome ro;
    CandidateQuery candidate;
    uint64_t seq = 0;
    while (open && seq < options_.max_candidates_per_mapping &&
           validation.accepting() && composer.Next(&candidate)) {
      ++stats.candidates_generated;
      if (budget_exceeded()) break;
      validation.Submit(seq++, std::move(candidate));
      while (open && validation.Release(&ro, /*wait=*/false)) open = handle(ro);
    }
    while (open && validation.Release(&ro, /*wait=*/true)) open = handle(ro);
    validation.Finish();
    stats.candidates_pruned_dead += composer.sets_pruned_dead();
    stats.walk_sets_expanded += composer.sets_expanded();
    if (static_cast<int>(answers.size()) >= limit) return answers;
    if (run.ShouldStop()) return aborted(stop_reason());
  }

  // A stop that ended the mapping enumeration still truncates: report it
  // before returning a below-limit answer set as complete.
  if (run.ShouldStop()) return aborted(stop_reason());
  if (!answers.empty()) return answers;
  return aborted("search space exhausted without finding a generating query");
}

}  // namespace fastqre
