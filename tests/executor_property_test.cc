// Differential property test: the pipelined index-nested-loop executor must
// agree with a brute-force cross-product reference evaluator on random small
// queries over random small databases (joins, self-joins, same-instance
// filters, selections).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "datagen/randomdb.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "storage/csv.h"

namespace fastqre {
namespace {

// Reference semantics: enumerate every combination of one row per instance,
// keep combinations satisfying all joins and selections, project, dedupe.
TupleSet BruteForce(const Database& db, const PJQuery& q) {
  const size_t n = q.num_instances();
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = db.table(q.instance_table(i)).num_rows();
  }
  TupleSet out;
  std::vector<RowId> binding(n, 0);
  while (true) {
    bool ok = true;
    for (const auto& j : q.joins()) {
      ValueId va = db.table(q.instance_table(j.a)).column(j.col_a).at(binding[j.a]);
      ValueId vb = db.table(q.instance_table(j.b)).column(j.col_b).at(binding[j.b]);
      if (va != vb) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const auto& s : q.selections()) {
        if (db.table(q.instance_table(s.instance)).column(s.column).at(
                binding[s.instance]) != s.value) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      std::vector<ValueId> tuple;
      tuple.reserve(q.projections().size());
      for (const auto& p : q.projections()) {
        tuple.push_back(
            db.table(q.instance_table(p.instance)).column(p.column).at(
                binding[p.instance]));
      }
      out.insert(std::move(tuple));
    }
    // Odometer increment.
    size_t d = 0;
    while (d < n && ++binding[d] == rows[d]) {
      binding[d] = 0;
      ++d;
    }
    if (d == n) break;
  }
  return out;
}

class ExecutorDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorDifferential, AgreesWithBruteForce) {
  const uint64_t seed = GetParam();
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 25;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  Database db = BuildRandomDb(db_opts).ValueOrDie();

  Rng rng(seed * 1337 + 11);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 2);
  q_opts.num_projections = 2;
  q_opts.min_rout_rows = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    TupleSet expected = BruteForce(db, wq->query);
    TupleSet actual = TableToTupleSet(
        ExecuteToTable(db, wq->query, "actual").ValueOrDie());
    ASSERT_EQ(actual, expected)
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
    // The block executor is a third independent implementation.
    TupleSet block = TableToTupleSet(
        ExecuteBlock(db, wq->query, "block").ValueOrDie());
    ASSERT_EQ(block, expected)
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
  }
}

TEST_P(ExecutorDifferential, AgreesWithBruteForceUnderSelections) {
  const uint64_t seed = GetParam();
  Database db = BuildRandomDb({.seed = seed, .num_tables = 2, .min_rows = 8,
                               .max_rows = 20})
                    .ValueOrDie();
  Rng rng(seed + 5);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  if (!wq.ok()) GTEST_SKIP();

  // Add a random selection binding one projection column to a value present
  // somewhere in the projected table.
  PJQuery q = wq->query;
  const auto& proj = q.projections()[0];
  const Column& col =
      db.table(q.instance_table(proj.instance)).column(proj.column);
  q.AddSelection(proj.instance, proj.column,
                 col.at(static_cast<RowId>(rng.Uniform(col.size()))));

  TupleSet expected = BruteForce(db, q);
  auto cursor = QueryCursor::Create(db, q).ValueOrDie();
  TupleSet actual;
  std::vector<ValueId> row;
  while (cursor->Next(&row)) actual.insert(row);
  // Note: `actual` may legitimately be empty — the selected value exists in
  // its column, but the join can eliminate every row carrying it.
  ASSERT_EQ(actual, expected) << "seed " << seed << "\n" << q.ToSql(db);
}

TEST_P(ExecutorDifferential, SameInstanceFilterAgrees) {
  const uint64_t seed = GetParam();
  Database db = BuildRandomDb({.seed = seed, .num_tables = 2, .min_rows = 10,
                               .max_rows = 20, .data_domain = 6})
                    .ValueOrDie();
  // Query: single instance of t1 with a same-instance equality between two
  // of its data columns (if it has two), projected on the key.
  const Table& t1 = db.table(1);
  if (t1.num_columns() < 4) GTEST_SKIP();  // key, fk, need 2 data columns
  PJQuery q;
  InstanceId i = q.AddInstance(1);
  ColumnId a = static_cast<ColumnId>(t1.num_columns() - 2);
  ColumnId b = static_cast<ColumnId>(t1.num_columns() - 1);
  q.AddJoin(i, a, i, b);
  q.AddProjection(i, 0);
  TupleSet expected = BruteForce(db, q);
  TupleSet actual =
      TableToTupleSet(ExecuteToTable(db, q, "actual").ValueOrDie());
  ASSERT_EQ(actual, expected) << "seed " << seed;
}

// The name predates the subplan memo's removal; it is kept so the test ids
// stay stable.
TEST_P(ExecutorDifferential, SipAndSubplanCacheAreSemanticsPreserving) {
  // DESIGN.md §13: SIP filters may only skip work, never change results.
  // SIP off and on must emit a byte-identical relation (CSV compare: row
  // order included) and match the brute-force reference. Each setting also
  // runs the exact extras check (a `subset_guard`): guarded by the true
  // result it is not violated and returns the same table; guarded by that
  // result minus one tuple it is violated.
  const uint64_t seed = GetParam();
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 25;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  Database db = BuildRandomDb(db_opts).ValueOrDie();

  Rng rng(seed * 4099 + 3);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 2);
  q_opts.num_projections = 2;
  q_opts.min_rout_rows = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    const TupleSet expected = BruteForce(db, wq->query);
    ExecPolicy off;
    off.use_sip = false;
    const std::string baseline =
        TableToCsv(ExecuteBlock(db, wq->query, "block", {}, off).ValueOrDie());
    ASSERT_EQ(TableToTupleSet(
                  ExecuteBlock(db, wq->query, "block", {}, off).ValueOrDie()),
              expected)
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
    // The guard that is violated: the true result minus its smallest tuple.
    TupleSet short_guard = expected;
    if (!expected.empty()) {
      short_guard.erase(*std::min_element(expected.begin(), expected.end()));
    }
    for (bool sip : {false, true}) {
      ExecPolicy p;
      p.use_sip = sip;
      const std::string cell = "seed " + std::to_string(seed) + " trial " +
                               std::to_string(trial) +
                               " sip=" + std::to_string(sip) + "\n" +
                               wq->query.ToSql(db);
      auto got = ExecuteBlock(db, wq->query, "block", {}, p);
      ASSERT_TRUE(got.ok()) << cell;
      EXPECT_EQ(TableToCsv(*got), baseline) << cell;

      bool violated = true;
      auto guarded =
          ExecuteBlock(db, wq->query, "block", {}, p, &expected, &violated);
      ASSERT_TRUE(guarded.ok()) << cell;
      EXPECT_FALSE(violated) << cell;
      EXPECT_EQ(TableToCsv(*guarded), baseline) << cell;

      if (expected.empty()) continue;
      violated = false;
      auto short_run = ExecuteBlock(db, wq->query, "block", {}, p,
                                    &short_guard, &violated);
      ASSERT_TRUE(short_run.ok()) << cell;
      EXPECT_TRUE(violated) << cell;
    }
    // The pipelined cursor honours the same policy bit: SIP on and off must
    // stream identical ordered rows.
    std::vector<std::vector<ValueId>> streams[2];
    for (int sip = 0; sip < 2; ++sip) {
      ExecPolicy p;
      p.use_sip = (sip == 1);
      auto cursor =
          QueryCursor::Create(db, wq->query, {}, {}, p).ValueOrDie();
      std::vector<ValueId> row;
      while (cursor->Next(&row)) streams[sip].push_back(row);
    }
    EXPECT_EQ(streams[0], streams[1])
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferential,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace fastqre
