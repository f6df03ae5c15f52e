// Determinism tests for the parallel validation pool: Reverse() must return
// byte-identical answers for any validation_threads setting (the rank
// barrier of DESIGN.md §8), and the statistics must stay internally
// consistent when candidates are cancelled mid-flight. Also unit-tests the
// common threading primitives the pool is built from.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/randomdb.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/fastqre.h"

namespace fastqre {
namespace {

// Stats invariants that must hold for every run, serial or parallel.
void ExpectConsistentStats(const QreStats& s, const std::string& context) {
  EXPECT_LE(s.candidates_validated + s.candidates_cancelled,
            s.candidates_generated)
      << context;
  EXPECT_LE(s.candidates_dismissed_probe, s.candidates_validated) << context;
  EXPECT_LE(s.candidates_dismissed_walk, s.candidates_validated) << context;
  EXPECT_LE(s.probe_rows + s.coherence_rows + s.alltuple_rows + s.fullscan_rows,
            s.validation_rows)
      << context;
}

class ParallelQreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
    workload_ = StandardTpchWorkload(db_).ValueOrDie();
  }

  // Runs Reverse() with each thread count and asserts the answers match the
  // serial one field-for-field.
  void ExpectThreadCountInvariant(const Table& rout, QreOptions base,
                                  const std::string& name) {
    base.validation_threads = 1;
    FastQre serial(&db_, base);
    QreAnswer reference = serial.Reverse(rout).ValueOrDie();
    ExpectConsistentStats(reference.stats, name + " serial");

    for (int threads : {2, 8}) {
      QreOptions opts = base;
      opts.validation_threads = threads;
      FastQre parallel(&db_, opts);
      QreAnswer got = parallel.Reverse(rout).ValueOrDie();
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      EXPECT_EQ(got.found, reference.found);
      EXPECT_EQ(got.sql, reference.sql);
      EXPECT_EQ(got.failure_reason, reference.failure_reason);
      EXPECT_EQ(got.num_instances, reference.num_instances);
      EXPECT_EQ(got.num_joins, reference.num_joins);
      ExpectConsistentStats(got.stats, name);
    }
  }

  Database db_;
  std::vector<WorkloadQuery> workload_;
};

TEST_F(ParallelQreTest, LadderAnswersIdenticalAcrossThreadCounts) {
  // The full complexity ladder, exact variant — including the paper's
  // cyclic self-join Queries 2 and 1 (L09/L10).
  for (const auto& wq : workload_) {
    ExpectThreadCountInvariant(wq.rout, QreOptions(), wq.name);
  }
}

TEST_F(ParallelQreTest, SupersetVariantIdenticalAcrossThreadCounts) {
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  for (int i : {0, 2, 4, 8}) {
    ExpectThreadCountInvariant(workload_[i].rout, opts, workload_[i].name);
  }
}

TEST_F(ParallelQreTest, AblationConfigsStayDeterministic) {
  // Determinism must not depend on the pruning machinery being on: with
  // feedback off the composer emits strictly more candidates, with probing
  // off the per-candidate work changes shape — the rank barrier alone must
  // keep answers identical.
  for (auto tweak : {0, 1, 2}) {
    QreOptions opts;
    if (tweak == 0) opts.use_feedback_pruning = false;
    if (tweak == 1) opts.use_probing = false;
    if (tweak == 2) opts.use_indirect_coherence = false;
    ExpectThreadCountInvariant(workload_[5].rout, opts,
                               "tweak" + std::to_string(tweak));
  }
}

TEST_F(ParallelQreTest, RandomCpjWorkloadsIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {7u, 11u, 23u}) {
    Database db = BuildRandomDb({.seed = seed, .num_tables = 4}).ValueOrDie();
    Rng rng(seed * 1000 + 1);
    auto wq = RandomCpjQuery(db, &rng, RandomQueryOptions{});
    if (!wq.ok()) continue;  // this seed produced no usable query

    QreOptions base;
    FastQre serial(&db, base);
    QreAnswer reference = serial.Reverse(wq->rout).ValueOrDie();
    for (int threads : {2, 8}) {
      QreOptions opts;
      opts.validation_threads = threads;
      FastQre parallel(&db, opts);
      QreAnswer got = parallel.Reverse(wq->rout).ValueOrDie();
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(got.found, reference.found);
      EXPECT_EQ(got.sql, reference.sql);
      EXPECT_EQ(got.failure_reason, reference.failure_reason);
      ExpectConsistentStats(got.stats, "random seed");
    }
  }
}

TEST_F(ParallelQreTest, ReverseAllEnumeratesIdenticalAnswerLists) {
  // The rank barrier must also hold for multi-answer enumeration: the k-th
  // answer is the k-th generating candidate in rank order.
  FastQre serial(&db_, QreOptions());
  auto reference = serial.ReverseAll(workload_[3].rout, 3).ValueOrDie();
  for (int threads : {2, 8}) {
    QreOptions opts;
    opts.validation_threads = threads;
    FastQre parallel(&db_, opts);
    auto got = parallel.ReverseAll(workload_[3].rout, 3).ValueOrDie();
    ASSERT_EQ(got.size(), reference.size()) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].found, reference[i].found) << i;
      EXPECT_EQ(got[i].sql, reference[i].sql) << i;
    }
  }
}

TEST_F(ParallelQreTest, LimitAnswerStatsCountEverySpeculativeCandidate) {
  // The answer that reaches the limit is published only after the workers
  // join, so its stats account for every generated candidate: validated to
  // completion, or cancelled as speculation ranked behind the winner.
  for (const auto& wq : workload_) {
    for (int threads : {1, 4, 8}) {
      QreOptions opts;
      opts.validation_threads = threads;
      FastQre engine(&db_, opts);
      QreAnswer a = engine.Reverse(wq.rout).ValueOrDie();
      SCOPED_TRACE(wq.name + " threads=" + std::to_string(threads));
      EXPECT_EQ(a.stats.candidates_validated + a.stats.candidates_cancelled,
                a.stats.candidates_generated);
    }
  }
}

TEST_F(ParallelQreTest, ParallelAnswerStillRegenerates) {
  QreOptions opts;
  opts.validation_threads = 4;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[9].rout).ValueOrDie();
  ASSERT_TRUE(a.found) << a.failure_reason;
  Table regen = ExecuteToTable(db_, a.query, "regen").ValueOrDie();
  EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(workload_[9].rout))
      << a.sql;
}

TEST_F(ParallelQreTest, TraceIsRankOrderedAndMarksCancellations) {
  QreOptions opts;
  opts.validation_threads = 8;
  opts.collect_trace = true;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[7].rout).ValueOrDie();
  ASSERT_TRUE(a.found);
  // Within each mapping the candidates appear in rank order (dc is
  // non-decreasing per mapping is not guaranteed across pool policy, but
  // mapping indexes must be non-decreasing and the generating entry must
  // exist exactly once before any "cancelled" entries of its mapping).
  int last_mapping = -1;
  for (const auto& c : a.trace.candidates) {
    EXPECT_GE(c.mapping_index, last_mapping);
    last_mapping = std::max(last_mapping, c.mapping_index);
  }
  size_t generating = 0;
  for (const auto& c : a.trace.candidates) {
    if (c.outcome == "generating") ++generating;
  }
  EXPECT_GE(generating, 1u);
}

TEST_F(ParallelQreTest, WalkCacheDeterminismMatrix) {
  // DESIGN.md §9: walk substitution must not change accepted answers. Every
  // (cache budget, thread count) combination must reproduce the serial
  // cache-off answer byte-for-byte — including a pathologically tiny budget
  // that keeps evicting and re-admitting relations mid-search.
  for (int i : {8, 9}) {  // L09/L10: the cyclic, walk-heavy ladder entries
    QreOptions off;
    off.walk_cache_budget_bytes = 0;
    FastQre reference_engine(&db_, off);
    QreAnswer reference = reference_engine.Reverse(workload_[i].rout).ValueOrDie();

    for (uint64_t budget : {uint64_t{4} << 10, uint64_t{64} << 20}) {
      for (int threads : {1, 8}) {
        QreOptions opts;
        opts.walk_cache_budget_bytes = budget;
        opts.walk_cache_admission = 0;  // maximal cache involvement
        opts.validation_threads = threads;
        FastQre engine(&db_, opts);
        QreAnswer got = engine.Reverse(workload_[i].rout).ValueOrDie();
        SCOPED_TRACE(workload_[i].name + " budget=" + std::to_string(budget) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(got.found, reference.found);
        EXPECT_EQ(got.sql, reference.sql);
        EXPECT_EQ(got.failure_reason, reference.failure_reason);
        ExpectConsistentStats(got.stats, "walk-cache matrix");
      }
    }
  }
}

// The name predates the subplan memo's removal; it is kept so the test id
// stays stable.
TEST_F(ParallelQreTest, SubplanCacheDeterminismMatrix) {
  // DESIGN.md §13: SIP filtering must not change accepted answers. Every
  // (SIP, thread count) combination must reproduce the SIP-off serial
  // answer byte-for-byte.
  for (int i : {8, 9}) {  // L09/L10: the convoy-heavy cyclic ladder entries
    QreOptions off;
    off.use_sip = false;
    FastQre reference_engine(&db_, off);
    QreAnswer reference =
        reference_engine.Reverse(workload_[i].rout).ValueOrDie();

    for (bool sip : {false, true}) {
      for (int threads : {1, 8}) {
        QreOptions opts;
        opts.use_sip = sip;
        opts.validation_threads = threads;
        FastQre engine(&db_, opts);
        QreAnswer got = engine.Reverse(workload_[i].rout).ValueOrDie();
        SCOPED_TRACE(workload_[i].name + " sip=" + std::to_string(sip) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(got.found, reference.found);
        EXPECT_EQ(got.sql, reference.sql);
        EXPECT_EQ(got.failure_reason, reference.failure_reason);
        ExpectConsistentStats(got.stats, "sip matrix");
      }
    }
  }
}

TEST_F(ParallelQreTest, IntraCandidateDeterminismMatrix) {
  // DESIGN.md §12: morsel-driven intra-candidate execution must not change
  // answers. Every (intra threads, validation threads, walk-cache budget)
  // combination must reproduce the all-defaults serial answer
  // byte-for-byte — a tiny morsel size and threshold force the morsel path
  // onto every candidate.
  for (int i : {8, 9}) {  // L09/L10: the walk-heavy cyclic ladder entries
    FastQre reference_engine(&db_, QreOptions());
    QreAnswer reference =
        reference_engine.Reverse(workload_[i].rout).ValueOrDie();

    for (int intra : {1, 4}) {
      for (int threads : {1, 8}) {
        for (uint64_t budget : {uint64_t{4} << 10, uint64_t{64} << 20}) {
          QreOptions opts;
          opts.intra_candidate_threads = intra;
          opts.morsel_size = 7;
          opts.intra_row_threshold = 1;
          opts.validation_threads = threads;
          opts.walk_cache_budget_bytes = budget;
          opts.walk_cache_admission = 0;
          FastQre engine(&db_, opts);
          QreAnswer got = engine.Reverse(workload_[i].rout).ValueOrDie();
          SCOPED_TRACE(workload_[i].name + " intra=" + std::to_string(intra) +
                       " threads=" + std::to_string(threads) + " budget=" +
                       std::to_string(budget));
          EXPECT_EQ(got.found, reference.found);
          EXPECT_EQ(got.sql, reference.sql);
          EXPECT_EQ(got.failure_reason, reference.failure_reason);
          ExpectConsistentStats(got.stats, "intra matrix");
        }
      }
    }
  }
}

TEST_F(ParallelQreTest, ConcurrentReverseAllOnOneEngineShareItsPool) {
  // Validation tasks and morsel helpers of two concurrent calls all run on
  // the engine's one pool (DESIGN.md §8, §12). A tiny morsel size and
  // threshold send every candidate's morsels through that pool too. Both
  // calls must still answer byte-identically to a serial engine.
  for (int i : {8, 9}) {  // L09/L10
    FastQre serial(&db_, QreOptions());
    const std::vector<QreAnswer> reference =
        serial.ReverseAll(workload_[i].rout, 1).ValueOrDie();

    QreOptions opts;
    opts.validation_threads = 4;
    opts.intra_candidate_threads = 4;
    opts.morsel_size = 7;
    opts.intra_row_threshold = 1;
    FastQre engine(&db_, opts);
    std::vector<QreAnswer> got[2];
    std::thread calls[2];
    for (int c = 0; c < 2; ++c) {
      calls[c] = std::thread([&, c] {
        got[c] = engine.ReverseAll(workload_[i].rout, 1).ValueOrDie();
      });
    }
    for (auto& t : calls) t.join();
    for (int c = 0; c < 2; ++c) {
      SCOPED_TRACE(workload_[i].name + " call " + std::to_string(c));
      ASSERT_EQ(got[c].size(), reference.size());
      for (size_t k = 0; k < reference.size(); ++k) {
        EXPECT_EQ(got[c][k].found, reference[k].found) << k;
        EXPECT_EQ(got[c][k].sql, reference[k].sql) << k;
        EXPECT_EQ(got[c][k].failure_reason, reference[k].failure_reason) << k;
      }
    }
  }
}

TEST_F(ParallelQreTest, MorselWorkerCancelKeepsProvedAnswers) {
  // An injected cancel firing inside a morsel worker must behave exactly
  // like an external Cancel(): the merge never deadlocks, answers already
  // proved are returned, and the truncated tail says "cancelled".
  QreOptions opts;
  opts.fault_spec = "morsel-worker=cancel@4";
  opts.intra_candidate_threads = 4;
  opts.morsel_size = 4;
  opts.intra_row_threshold = 1;
  FastQre engine(&db_, opts);
  auto answers = engine.ReverseAll(workload_[3].rout, 3).ValueOrDie();
  ASSERT_FALSE(answers.empty());
  for (size_t k = 0; k < answers.size(); ++k) {
    if (answers[k].found) {
      Table regen = ExecuteToTable(db_, answers[k].query, "regen").ValueOrDie();
      EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(workload_[3].rout))
          << answers[k].sql;
    } else {
      EXPECT_EQ(k, answers.size() - 1) << "unfound entry not last";
      EXPECT_EQ(answers[k].failure_reason, "cancelled");
      EXPECT_TRUE(answers[k].stats.cancelled);
    }
  }
}

TEST_F(ParallelQreTest, MorselWorkerAllocFailDismissesCandidatesOnly) {
  // An injected alloc-fail at the morsel-worker site is candidate-local: the
  // affected candidate is dismissed (kError), the search carries on and ends
  // cleanly — never as a whole-search memory abort, never deadlocked.
  QreOptions opts;
  opts.fault_spec = "morsel-worker=alloc-fail@2";
  opts.intra_candidate_threads = 4;
  opts.morsel_size = 4;
  opts.intra_row_threshold = 1;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[3].rout).ValueOrDie();
  EXPECT_NE(a.failure_reason, "memory budget exceeded");
  ExpectConsistentStats(a.stats, "morsel alloc-fail");
  if (a.found) {
    Table regen = ExecuteToTable(db_, a.query, "regen").ValueOrDie();
    EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(workload_[3].rout));
  }
}

TEST_F(ParallelQreTest, MorselWorkerDelayChangesNothing) {
  // A delay widening the morsel race windows must leave the answer
  // byte-identical (the sanitizer jobs run this with TSan).
  FastQre reference_engine(&db_, QreOptions());
  QreAnswer reference =
      reference_engine.Reverse(workload_[8].rout).ValueOrDie();
  QreOptions opts;
  opts.fault_spec = "morsel-worker=delay@1";
  opts.intra_candidate_threads = 4;
  opts.morsel_size = 4;
  opts.intra_row_threshold = 1;
  FastQre engine(&db_, opts);
  QreAnswer got = engine.Reverse(workload_[8].rout).ValueOrDie();
  EXPECT_EQ(got.found, reference.found);
  EXPECT_EQ(got.sql, reference.sql);
  EXPECT_EQ(got.failure_reason, reference.failure_reason);
}

TEST_F(ParallelQreTest, ZeroAndNegativeThreadsBehaveAsSerial) {
  for (int threads : {0, -3}) {
    QreOptions opts;
    opts.validation_threads = threads;
    FastQre engine(&db_, opts);
    QreAnswer a = engine.Reverse(workload_[1].rout).ValueOrDie();
    EXPECT_TRUE(a.found);
  }
}

TEST_F(ParallelQreTest, ExpiredBudgetFailsHonestlyInParallel) {
  QreOptions opts;
  opts.validation_threads = 4;
  opts.time_budget_seconds = 1e-9;  // expires immediately
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[9].rout).ValueOrDie();
  EXPECT_FALSE(a.found);
  EXPECT_EQ(a.failure_reason, "time budget exceeded");
}

// ---- Threading primitive unit tests ----------------------------------------

TEST(RunMorselsTest, RunsEveryMorselExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(100);
  RunMorsels(&pool, 3, counts.size(), [&](size_t i) { ++counts[i]; });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(RunMorselsTest, NullPoolAndZeroMorselsRunInline) {
  std::vector<int> counts(50, 0);
  RunMorsels(nullptr, 4, counts.size(), [&](size_t i) { ++counts[i]; });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], 1) << i;  // serial fallback: in order, once each
  }
  bool called = false;
  RunMorsels(nullptr, 4, 0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(RunMorselsTest, ConcurrentBatchesOnSharedPoolBothComplete) {
  // Two candidates sharing one single-threaded pool: each batch completes
  // because the dispatching thread drains its own counter — pool capacity
  // can delay helpers but never deadlock a batch (DESIGN.md §12).
  ThreadPool pool(1);
  std::atomic<int> total{0};
  std::thread t1([&] { RunMorsels(&pool, 1, 64, [&](size_t) { ++total; }); });
  std::thread t2([&] { RunMorsels(&pool, 1, 64, [&](size_t) { ++total; }); });
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 128);
}

TEST(RunMorselsTest, ReturnsWhileThePoolsOnlyThreadIsBlocked) {
  // A shared pool can have every thread busy with long work (validation
  // tasks, DESIGN.md §8). The caller must finish its batch alone and return
  // without waiting for a helper that is still queued. A watchdog releases
  // the blocker after about 2 s, so a regression fails instead of hanging.
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;  // guarded by mu
  std::vector<std::atomic<int>> counts(64);
  bool released_at_return = true;
  {
    ThreadPool pool(1);
    std::atomic<bool> blocker_running{false};
    pool.Submit([&] {
      blocker_running = true;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return released; });
    });
    while (!blocker_running) std::this_thread::yield();
    std::thread watchdog([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(2), [&] { return released; });
      released = true;
      lock.unlock();
      cv.notify_all();
    });

    // The helper is queued behind the blocker; the batch's fn is a
    // temporary that dies when RunMorsels returns.
    RunMorsels(&pool, 1, counts.size(), [&counts](size_t i) { ++counts[i]; });
    {
      std::lock_guard<std::mutex> lock(mu);
      released_at_return = released;
      released = true;
    }
    cv.notify_all();
    watchdog.join();
  }  // the pool's destructor runs the late helper, which must exit untouched
  EXPECT_FALSE(released_at_return);
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ++ran; });
    }
  }  // the destructor drains the queued tasks before joining
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace fastqre
