// Differential harness for morsel-driven intra-candidate execution
// (DESIGN.md §12): over every random-db scenario of the executor property
// test, the block executor must produce byte-identical results across
// {1, 8} intra-candidate threads × morsel sizes {1, 7, 2048}, with every
// governor charge released; the pipelined cursor's reach-driven step over a
// materialized walk must stream identical rows at every morsel size;
// Reverse() must return byte-identical ranked SQL across intra-thread
// counts; and an interrupt must land within one morsel of work.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/resource_governor.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/randomdb.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/fastqre.h"
#include "qre/walk_cache.h"
#include "storage/csv.h"

namespace fastqre {
namespace {

// The full execution-policy matrix of the differential harness. intra
// threshold 1 forces even tiny driving relations onto the pool, so the
// parallel merge path is really exercised on small test databases.
std::vector<ExecPolicy> PolicyMatrix(ThreadPool* pool) {
  std::vector<ExecPolicy> out;
  for (int threads : {1, 8}) {
    for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
      ExecPolicy p;
      p.intra_threads = threads;
      p.morsel_size = morsel;
      p.intra_threshold = 1;
      p.pool = threads > 1 ? pool : nullptr;
      out.push_back(p);
    }
  }
  return out;
}

std::string PolicyName(const ExecPolicy& p) {
  return "t" + std::to_string(p.intra_threads) + "/m" +
         std::to_string(p.morsel_size);
}

Database SeededRandomDb(uint64_t seed) {
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 25;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  return BuildRandomDb(db_opts).ValueOrDie();
}

class MorselDifferential : public ::testing::TestWithParam<uint64_t> {};

// Block executor: every (threads, morsel-size) configuration must
// emit the same relation byte-for-byte (row order included — the morsel
// merge is in morsel-index order, so the stream is config-independent).
TEST_P(MorselDifferential, BlockExecutorMatrixIsByteIdentical) {
  const uint64_t seed = GetParam();
  Database db = SeededRandomDb(seed);
  Rng rng(seed * 1337 + 11);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 2);
  q_opts.num_projections = 2;
  q_opts.min_rout_rows = 0;
  ThreadPool pool(7);
  const std::vector<ExecPolicy> matrix = PolicyMatrix(&pool);
  for (int trial = 0; trial < 5; ++trial) {
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    const std::string baseline =
        TableToCsv(ExecuteBlock(db, wq->query, "block").ValueOrDie());
    for (const ExecPolicy& p : matrix) {
      auto got = ExecuteBlock(db, wq->query, "block", {}, p);
      ASSERT_TRUE(got.ok()) << PolicyName(p) << " seed " << seed;
      EXPECT_EQ(TableToCsv(*got), baseline)
          << PolicyName(p) << " seed " << seed << " trial " << trial << "\n"
          << wq->query.ToSql(db);
    }
  }
}

// Pipelined cursor, reach-driven step: a three-instance chain A-B-C whose
// middle hop is materialized with BuildWalkRelation and substituted as a
// VirtualJoin between A and C. The later-planned endpoint then has no
// physical index key, so its candidate rows come from the reach driver
// (HashIndex::LookupBatch over the cached value span, one morsel at a
// time). Every morsel size must stream
// the same ordered rows, and their set must equal the brute-force
// projection of the physical chain A.x = B.y, B.z = C.w.
TEST_P(MorselDifferential, CursorStreamsAgreeAcrossKernels) {
  const uint64_t seed = GetParam();
  Database db = SeededRandomDb(seed);
  Rng rng(seed + 77);
  const auto& edges = db.schema_graph().edges();
  int chains = 0;
  for (const SchemaEdge& e1 : edges) {
    for (const SchemaEdge& e2 : edges) {
      if (e1.id == e2.id || e1.IsSelfLoop() || e2.IsSelfLoop()) continue;
      // The middle table B is the one e1 and e2 share.
      for (int s1 = 0; s1 < 2; ++s1) {
        for (int s2 = 0; s2 < 2; ++s2) {
          if (e1.table[s1] != e2.table[s2]) continue;
          const TableId ta = e1.table[1 - s1];
          const ColumnId xa = e1.column[1 - s1];
          const TableId tb = e1.table[s1];
          const ColumnId yb = e1.column[s1];
          const ColumnId zb = e2.column[s2];
          const TableId tc = e2.table[1 - s2];
          const ColumnId wc = e2.column[1 - s2];
          const Table& a_tab = db.table(ta);
          const Table& b_tab = db.table(tb);
          const Table& c_tab = db.table(tc);
          const ColumnId pa =
              static_cast<ColumnId>(rng.Uniform(a_tab.num_columns()));
          const ColumnId pc =
              static_cast<ColumnId>(rng.Uniform(c_tab.num_columns()));
          ++chains;

          std::unique_ptr<WalkRelation> rel =
              BuildWalkRelation(db, {WalkHop{tb, yb, zb}}, {});
          ASSERT_NE(rel, nullptr);
          PJQuery q;
          const InstanceId a = q.AddInstance(ta);
          const InstanceId c = q.AddInstance(tc);
          q.AddProjection(a, pa);
          q.AddProjection(c, pc);
          VirtualJoin vj{a, xa, c, wc, &rel->forward, &rel->reverse};
          vj.a_domain = &rel->forward_domain;
          vj.b_domain = &rel->reverse_domain;

          std::set<std::vector<ValueId>> expected;
          for (RowId ra = 0; ra < a_tab.num_rows(); ++ra) {
            for (RowId rb = 0; rb < b_tab.num_rows(); ++rb) {
              if (a_tab.column(xa).at(ra) != b_tab.column(yb).at(rb)) continue;
              for (RowId rc = 0; rc < c_tab.num_rows(); ++rc) {
                if (b_tab.column(zb).at(rb) != c_tab.column(wc).at(rc)) {
                  continue;
                }
                expected.insert(
                    {a_tab.column(pa).at(ra), c_tab.column(pc).at(rc)});
              }
            }
          }

          std::vector<std::vector<ValueId>> baseline;
          for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
            ExecPolicy p;
            p.morsel_size = morsel;
            auto cursor =
                QueryCursor::Create(db, q, {}, {vj}, p).ValueOrDie();
            std::vector<std::vector<ValueId>> stream;
            std::vector<ValueId> row;
            while (cursor->Next(&row)) stream.push_back(row);
            const std::string where =
                "seed " + std::to_string(seed) + " chain t" +
                std::to_string(ta) + "-t" + std::to_string(tb) + "-t" +
                std::to_string(tc) + " morsel " + std::to_string(morsel);
            if (morsel == 1) {
              baseline = stream;
              EXPECT_EQ(std::set<std::vector<ValueId>>(stream.begin(),
                                                       stream.end()),
                        expected)
                  << where;
            } else {
              EXPECT_EQ(stream, baseline) << where;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(chains, 0) << "seed " << seed;
}

// Rebind on a planned cursor must be indistinguishable from a fresh
// Create with the new constants — the whole point of batching probes.
TEST_P(MorselDifferential, RebindMatchesFreshCreate) {
  const uint64_t seed = GetParam();
  Database db = SeededRandomDb(seed);
  Rng rng(seed + 3);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 1;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  if (!wq.ok() || wq->rout.num_rows() < 2) GTEST_SKIP();

  // One selection per projection column, bound to R_out tuple 0 at Create.
  PJQuery probe = wq->query;
  const auto projections = probe.projections();
  for (size_t j = 0; j < projections.size(); ++j) {
    probe.AddSelection(projections[j].instance, projections[j].column,
                       wq->rout.column(static_cast<ColumnId>(j)).at(0));
  }
  ExecPolicy p;  // batched default
  auto shared = QueryCursor::Create(db, probe, {}, {}, p).ValueOrDie();
  ASSERT_EQ(shared->num_rebindable(), projections.size());

  for (RowId r = 0; r < wq->rout.num_rows(); ++r) {
    std::vector<ValueId> vals(projections.size());
    for (size_t j = 0; j < vals.size(); ++j) {
      vals[j] = wq->rout.column(static_cast<ColumnId>(j)).at(r);
    }
    shared->Rebind(vals.data(), vals.size());
    std::vector<std::vector<ValueId>> rebound;
    std::vector<ValueId> row;
    while (shared->Next(&row)) rebound.push_back(row);

    PJQuery fresh_q = wq->query;
    for (size_t j = 0; j < vals.size(); ++j) {
      fresh_q.AddSelection(projections[j].instance, projections[j].column,
                           vals[j]);
    }
    auto fresh = QueryCursor::Create(db, fresh_q).ValueOrDie();
    std::vector<std::vector<ValueId>> expected;
    while (fresh->Next(&row)) expected.push_back(row);
    ASSERT_EQ(rebound, expected) << "seed " << seed << " tuple " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MorselDifferential,
                         ::testing::Range<uint64_t>(1, 26));

// Governor balance: after the block executor has run (any configuration),
// every charged block-buffer byte must have been released — only the
// persistent index builds may remain tracked.
TEST(MorselExecutor, GovernorBalancedAcrossMatrix) {
  Database db = SeededRandomDb(4);
  Rng rng(999);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  ASSERT_TRUE(wq.ok());
  auto governor = std::make_shared<ResourceGovernor>(0);
  db.AttachGovernor(governor);
  // Warm-up builds (and permanently charges) the plan's hash indexes.
  (void)ExecuteBlock(db, wq->query, "block").ValueOrDie();
  const uint64_t resting = governor->tracked_bytes();
  ThreadPool pool(7);
  for (const ExecPolicy& p : PolicyMatrix(&pool)) {
    (void)ExecuteBlock(db, wq->query, "block", {}, p).ValueOrDie();
    EXPECT_EQ(governor->tracked_bytes(), resting) << PolicyName(p);
  }
  db.DetachGovernor(governor.get());
}

// End-to-end determinism: Reverse() must return byte-identical SQL across
// intra-thread counts with a small morsel size (the §12 contract).
TEST(MorselExecutor, RankedSqlIdenticalAcrossPolicies) {
  TpchOptions tpch;
  tpch.scale_factor = 0.001;
  tpch.seed = 3;
  Database db = BuildTpch(tpch).ValueOrDie();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  for (size_t wi : {size_t{0}, size_t{8}}) {
    const auto& wq = workload[wi];
    std::string baseline_sql;
    bool first = true;
    for (int intra : {1, 8}) {
      QreOptions opts;
      opts.intra_candidate_threads = intra;
      opts.morsel_size = 64;
      opts.intra_row_threshold = 1;
      FastQre engine(&db, opts);
      auto answer = engine.Reverse(wq.rout).ValueOrDie();
      ASSERT_TRUE(answer.found) << wq.name << " intra=" << intra;
      if (first) {
        baseline_sql = answer.sql;
        first = false;
      } else {
        EXPECT_EQ(answer.sql, baseline_sql) << wq.name << " intra=" << intra;
      }
    }
  }
}

// Satellite 4 regression: the block executor polls the interrupt once per
// morsel (not once per kInterruptPollMask tuples), so a deadline or Cancel()
// lands within one morsel of extra work.
TEST(MorselExecutor, InterruptHonoredWithinOneMorsel) {
  Database db = SeededRandomDb(7);
  Rng rng(7);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 3;
  q_opts.min_rout_rows = 0;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  ASSERT_TRUE(wq.ok());

  // An immediately-true interrupt must abort the evaluation regardless of
  // morsel size — even a single-morsel run reaches a poll point.
  for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
    ExecPolicy p;
    p.morsel_size = morsel;
    auto r = ExecuteBlock(db, wq->query, "block", [] { return true; }, p);
    ASSERT_FALSE(r.ok()) << "morsel " << morsel;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }

  // Poll frequency scales with morsel count: a morsel size of 1 must poll
  // strictly more often than one covering the whole input — the structural
  // guarantee that interrupt latency is bounded by one morsel, not by a
  // fixed row mask.
  auto count_polls = [&](size_t morsel) {
    size_t polls = 0;
    ExecPolicy p;
    p.morsel_size = morsel;
    auto r = ExecuteBlock(db, wq->query, "block",
                          [&polls] {
                            ++polls;
                            return false;
                          },
                          p);
    EXPECT_TRUE(r.ok());
    return polls;
  };
  const size_t fine = count_polls(1);
  const size_t coarse = count_polls(1u << 20);
  EXPECT_GT(fine, coarse);
  EXPECT_GE(coarse, 1u);
}

}  // namespace
}  // namespace fastqre
