// Tests for QreOptions extremes and defaults: the engine must stay correct
// (or fail honestly) at the edges of every knob.
#include <gtest/gtest.h>

#include "baseline/naive.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/fastqre.h"

namespace fastqre {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
    workload_ = StandardTpchWorkload(db_).ValueOrDie();
  }

  bool Solves(const QreOptions& opts, const Table& rout) {
    FastQre engine(&db_, opts);
    QreAnswer a = engine.Reverse(rout).ValueOrDie();
    if (!a.found) return false;
    Table regen = ExecuteToTable(db_, a.query, "regen").ValueOrDie();
    return TableToTupleSet(regen) == TableToTupleSet(rout);
  }

  Database db_;
  std::vector<WorkloadQuery> workload_;
};

TEST_F(OptionsTest, DefaultsSolveTheWholeLadder) {
  for (const auto& wq : workload_) {
    EXPECT_TRUE(Solves(QreOptions(), wq.rout)) << wq.name;
  }
}

TEST_F(OptionsTest, MaxMappingsOneStillSolvesUnambiguousQueries) {
  QreOptions opts;
  opts.max_mappings = 1;
  // The ranking puts the correct mapping first on these.
  for (int i : {0, 1, 2, 3}) {
    EXPECT_TRUE(Solves(opts, workload_[i].rout)) << workload_[i].name;
  }
}

TEST_F(OptionsTest, TinyCandidateBudgetNeverMisAnswers) {
  // With a budget of one candidate per mapping, the search either fails
  // honestly or returns a *correct* answer (the MST-seeded first candidate
  // can legitimately be generating) — never a wrong one.
  QreOptions opts;
  opts.max_candidates_per_mapping = 1;
  opts.max_mappings = 1;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[9].rout).ValueOrDie();
  if (a.found) {
    Table regen = ExecuteToTable(db_, a.query, "regen").ValueOrDie();
    EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(workload_[9].rout))
        << a.sql;
  }
}

TEST_F(OptionsTest, ProbeTuplesZeroDisablesQuickProbes) {
  QreOptions opts;
  opts.probe_tuples = 0;
  EXPECT_TRUE(Solves(opts, workload_[4].rout));
}

TEST_F(OptionsTest, LargePoolAndSlackStillCorrect) {
  QreOptions opts;
  opts.pool_min_size = 1000;
  opts.pool_dc_slack = 100.0;
  EXPECT_TRUE(Solves(opts, workload_[8].rout));  // L09
}

TEST_F(OptionsTest, ZeroPoolBehavesLikeEagerValidation) {
  QreOptions opts;
  opts.pool_min_size = 1;
  opts.pool_dc_slack = 0.0;
  EXPECT_TRUE(Solves(opts, workload_[8].rout));
}

TEST_F(OptionsTest, WalksPerPairCapOne) {
  // Keeping only the single shortest walk per pair preserves solvability of
  // the chain ladder queries (their generating walks are the shortest).
  QreOptions opts;
  opts.max_walks_per_pair = 1;
  for (int i : {0, 1, 2, 3, 4}) {
    EXPECT_TRUE(Solves(opts, workload_[i].rout)) << workload_[i].name;
  }
}

TEST_F(OptionsTest, CgmColumnCapOneDegradesGracefully) {
  // With max_cgm_columns = 1 all CGMs are singletons: grouping evidence is
  // lost but the search must still find the simple queries.
  QreOptions opts;
  opts.max_cgm_columns = 1;
  opts.time_budget_seconds = 30.0;
  for (int i : {0, 1, 2}) {
    EXPECT_TRUE(Solves(opts, workload_[i].rout)) << workload_[i].name;
  }
}

TEST_F(OptionsTest, AllAblationsAtOnceIsTheNaiveBaseline) {
  // NaiveQre must behave exactly like FastQre under BaselineOptions.
  QreOptions opts = NaiveQre::BaselineOptions(30.0);
  FastQre as_options(&db_, opts);
  NaiveQre baseline(&db_, 30.0);
  for (int i : {0, 2}) {
    QreAnswer a = as_options.Reverse(workload_[i].rout).ValueOrDie();
    QreAnswer b = baseline.Reverse(workload_[i].rout).ValueOrDie();
    ASSERT_EQ(a.found, b.found) << workload_[i].name;
    EXPECT_EQ(a.sql, b.sql) << workload_[i].name;
  }
}

TEST_F(OptionsTest, SupersetSolvesEverythingExactSolves) {
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  for (int i : {0, 3, 8}) {
    FastQre engine(&db_, opts);
    QreAnswer a = engine.Reverse(workload_[i].rout).ValueOrDie();
    ASSERT_TRUE(a.found) << workload_[i].name;
    Table result = ExecuteToTable(db_, a.query, "r").ValueOrDie();
    EXPECT_TRUE(IsSubsetOf(TableToTupleSet(workload_[i].rout),
                           TableToTupleSet(result)))
        << workload_[i].name << ": " << a.sql;
  }
}

TEST_F(OptionsTest, AlphaOutOfHabitualRangeStillWorks) {
  // alpha is documented in [0, 1] but the blend is linear; values slightly
  // outside must not break correctness (only ranking quality).
  for (double alpha : {-0.5, 1.5}) {
    QreOptions opts;
    opts.alpha = alpha;
    opts.time_budget_seconds = 30.0;
    EXPECT_TRUE(Solves(opts, workload_[1].rout)) << alpha;
  }
}

TEST_F(OptionsTest, ScalarProbeKernelsAreRejected) {
  // The tuple-at-a-time probe kernels were removed; a caller still asking
  // for them gets an error instead of silently running the batched kernel.
  QreOptions opts;
  opts.use_batched_probes = false;
  FastQre engine(&db_, opts);
  auto answers = engine.ReverseAll(workload_[0].rout, 1);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fastqre
