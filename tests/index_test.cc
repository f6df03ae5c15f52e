// Unit tests for HashIndex lookup behavior: the Lookup1 single-column fast
// path, multi-column lookups over duplicate keys, and empty tables — plus
// the interrupt regression for the hash-index builds that block execution
// triggers: an interrupt must land inside a large build (every
// kInterruptPollMask + 1 rows), leave nothing published, and keep the
// database's index slot rebuildable.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/interrupt.h"
#include "common/rng.h"
#include "datagen/randomdb.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/table.h"

namespace fastqre {
namespace {

Table MakeTable(const std::vector<std::pair<int64_t, int64_t>>& rows) {
  Table t("t", std::make_shared<Dictionary>());
  EXPECT_TRUE(t.AddColumn("a", ValueType::kInt64).ok());
  EXPECT_TRUE(t.AddColumn("b", ValueType::kInt64).ok());
  for (const auto& [a, b] : rows) {
    EXPECT_TRUE(t.AppendRow({Value(a), Value(b)}).ok());
  }
  return t;
}

TEST(HashIndexLookup, Lookup1MatchesLookupOnSingleColumn) {
  Table t = MakeTable({{1, 10}, {2, 20}, {1, 30}, {3, 10}, {1, 10}});
  HashIndex index(t, {0});
  for (RowId r = 0; r < t.num_rows(); ++r) {
    ValueId key = t.column(0).at(r);
    EXPECT_EQ(index.Lookup1(key), index.Lookup({key}));
  }
  // Duplicate key 1 maps to all three of its rows, in row order.
  ValueId one = t.column(0).at(0);
  EXPECT_EQ(index.Lookup1(one), (std::vector<RowId>{0, 2, 4}));
}

TEST(HashIndexLookup, Lookup1MissReturnsEmpty) {
  Table t = MakeTable({{1, 10}});
  HashIndex index(t, {0});
  // An id interned by nobody can't be in the index; kNullValueId is absent
  // too since no row is NULL.
  EXPECT_TRUE(index.Lookup1(kNullValueId).empty());
  EXPECT_TRUE(index.Lookup({kNullValueId}).empty());
}

TEST(HashIndexLookup, MultiColumnDuplicateKeys) {
  // (1,10) appears at rows 0, 3; (1,20) at row 1; (2,10) at row 2.
  Table t = MakeTable({{1, 10}, {1, 20}, {2, 10}, {1, 10}});
  HashIndex index(t, {0, 1});
  EXPECT_EQ(index.num_keys(), 3u);
  auto key = [&](RowId r) {
    return std::vector<ValueId>{t.column(0).at(r), t.column(1).at(r)};
  };
  EXPECT_EQ(index.Lookup(key(0)), (std::vector<RowId>{0, 3}));
  EXPECT_EQ(index.Lookup(key(1)), (std::vector<RowId>{1}));
  EXPECT_EQ(index.Lookup(key(2)), (std::vector<RowId>{2}));
  // Mixed key (2, 20) matches no row even though each part occurs somewhere.
  EXPECT_TRUE(index.Lookup({t.column(0).at(2), t.column(1).at(1)}).empty());
}

TEST(HashIndexLookup, EmptyTable) {
  Table t = MakeTable({});
  HashIndex single(t, {0});
  HashIndex multi(t, {0, 1});
  EXPECT_EQ(single.num_keys(), 0u);
  EXPECT_EQ(multi.num_keys(), 0u);
  EXPECT_TRUE(single.Lookup1(kNullValueId).empty());
  EXPECT_TRUE(multi.Lookup({kNullValueId, kNullValueId}).empty());
}

// --- LookupBatch (vectorized probes, DESIGN.md §12) ------------------------

// Flattens a BatchMatches back into per-key vectors for comparison.
std::vector<std::vector<RowId>> Extents(const BatchMatches& m) {
  std::vector<std::vector<RowId>> out(m.num_keys());
  for (size_t i = 0; i < m.num_keys(); ++i) {
    out[i].assign(m.begin_of(i), m.end_of(i));
  }
  return out;
}

TEST(HashIndexLookupBatch, MatchesLookup1OnSingleColumn) {
  Table t = MakeTable({{1, 10}, {2, 20}, {1, 30}, {3, 10}, {1, 10}});
  HashIndex index(t, {0});
  // Batch of every row's key, including duplicates adjacent (rows 2 and 4
  // repeat key 1 — the memoized-duplicate fast path) and one guaranteed
  // miss at the end.
  std::vector<ValueId> keys;
  for (RowId r = 0; r < t.num_rows(); ++r) keys.push_back(t.column(0).at(r));
  keys.push_back(kNullValueId);
  BatchMatches out;
  EXPECT_EQ(index.LookupBatch(keys.data(), keys.size(), &out), keys.size());
  ASSERT_EQ(out.num_keys(), keys.size());
  auto extents = Extents(out);
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    EXPECT_EQ(extents[i], index.Lookup1(keys[i])) << "key " << i;
  }
  EXPECT_TRUE(extents.back().empty());  // the miss
}

TEST(HashIndexLookupBatch, MatchesLookupOnMultiColumn) {
  Table t = MakeTable({{1, 10}, {1, 20}, {2, 10}, {1, 10}});
  HashIndex index(t, {0, 1});
  // Key-major layout, width 2: every row's key plus a mixed miss (2, 20).
  std::vector<ValueId> keys;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    keys.push_back(t.column(0).at(r));
    keys.push_back(t.column(1).at(r));
  }
  keys.push_back(t.column(0).at(2));
  keys.push_back(t.column(1).at(1));
  const size_t n = keys.size() / 2;
  BatchMatches out;
  EXPECT_EQ(index.LookupBatch(keys.data(), n, &out), n);
  ASSERT_EQ(out.num_keys(), n);
  auto extents = Extents(out);
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(extents[i],
              index.Lookup({keys[2 * i], keys[2 * i + 1]}))
        << "key " << i;
  }
  EXPECT_TRUE(extents.back().empty());
}

TEST(HashIndexLookupBatch, EmptyBatchAndAllMisses) {
  Table t = MakeTable({{1, 10}, {2, 20}});
  HashIndex index(t, {0});
  BatchMatches out;
  EXPECT_EQ(index.LookupBatch(nullptr, 0, &out), 0u);
  EXPECT_EQ(out.num_keys(), 0u);
  EXPECT_TRUE(out.rows.empty());
  // All-miss batch: every key absent, every extent empty, offsets intact.
  std::vector<ValueId> misses(5, kNullValueId);
  EXPECT_EQ(index.LookupBatch(misses.data(), misses.size(), &out),
            misses.size());
  ASSERT_EQ(out.num_keys(), misses.size());
  EXPECT_TRUE(out.rows.empty());
  for (size_t i = 0; i < out.num_keys(); ++i) {
    EXPECT_EQ(out.begin_of(i), out.end_of(i));
  }
}

TEST(HashIndexLookupBatch, MaxRowsStopsBetweenKeysNeverSplitsOne) {
  // Key 1 has three matching rows; key 2 has one; key 3 has one.
  Table t = MakeTable({{1, 10}, {1, 20}, {1, 30}, {2, 40}, {3, 50}});
  HashIndex index(t, {0});
  std::vector<ValueId> keys = {t.column(0).at(0), t.column(0).at(3),
                               t.column(0).at(4)};
  // A cap smaller than key 1's extent still consumes key 1 whole (progress
  // guarantee: >= 1 key per call), but stops before key 2.
  BatchMatches out;
  EXPECT_EQ(index.LookupBatch(keys.data(), keys.size(), &out, 2), 1u);
  ASSERT_EQ(out.num_keys(), 1u);
  EXPECT_EQ(Extents(out)[0], index.Lookup1(keys[0]));
  // Resuming from the consumed prefix drains the rest.
  EXPECT_EQ(index.LookupBatch(keys.data() + 1, keys.size() - 1, &out, 2), 2u);
  EXPECT_EQ(out.num_keys(), 2u);
  // A cap of zero means unlimited.
  EXPECT_EQ(index.LookupBatch(keys.data(), keys.size(), &out, 0), 3u);
  EXPECT_EQ(out.num_keys(), 3u);
  EXPECT_EQ(out.rows.size(), 5u);
}

TEST(HashIndexLookupBatch, DuplicateKeysInOneMorsel) {
  Table t = MakeTable({{1, 10}, {2, 20}, {1, 30}});
  HashIndex index(t, {0});
  ValueId one = t.column(0).at(0);
  ValueId two = t.column(0).at(1);
  // Adjacent and non-adjacent duplicates both reproduce the full extent.
  std::vector<ValueId> keys = {one, one, two, one};
  BatchMatches out;
  EXPECT_EQ(index.LookupBatch(keys.data(), keys.size(), &out), keys.size());
  auto extents = Extents(out);
  EXPECT_EQ(extents[0], (std::vector<RowId>{0, 2}));
  EXPECT_EQ(extents[1], (std::vector<RowId>{0, 2}));
  EXPECT_EQ(extents[2], (std::vector<RowId>{1}));
  EXPECT_EQ(extents[3], (std::vector<RowId>{0, 2}));
}

TEST(HashIndexLookup, NullIdsAreIndexedLikeValues) {
  Table t("t", std::make_shared<Dictionary>());
  ASSERT_TRUE(t.AddColumn("a", ValueType::kInt64).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  HashIndex index(t, {0});
  EXPECT_EQ(index.Lookup1(kNullValueId), (std::vector<RowId>{0, 2}));
}

// ---- Interrupt regression: hash-join index builds ---------------------------

// A database whose first table is large enough that an index build crosses
// several interrupt-poll strides.
Database BigTableDb() {
  RandomDbOptions opts;
  opts.seed = 11;
  opts.num_tables = 2;
  opts.min_rows = 3 * (kInterruptPollMask + 1);
  opts.max_rows = 3 * (kInterruptPollMask + 1) + 10;
  return BuildRandomDb(opts).ValueOrDie();
}

TEST(IndexBuildInterrupt, PolledInsideTheBuildNotAfterIt) {
  Database db = BigTableDb();
  size_t polls = 0;
  const HashIndex* idx = db.TryGetOrBuildIndex(
      0, {0}, [&polls] {
        ++polls;
        return false;
      });
  ASSERT_NE(idx, nullptr);
  // One poll per kInterruptPollMask + 1 rows: a 3-stride table must poll at
  // least 3 times *during* the build, not once around it.
  EXPECT_GE(polls, 3u);
}

TEST(IndexBuildInterrupt, AbortPublishesNothingAndSlotStaysRebuildable) {
  Database db = BigTableDb();
  // Fire on the second poll: the build starts, then aborts mid-scan.
  size_t polls = 0;
  const HashIndex* aborted = db.TryGetOrBuildIndex(
      0, {0}, [&polls] { return ++polls >= 2; });
  EXPECT_EQ(aborted, nullptr);
  EXPECT_GE(polls, 2u);
  EXPECT_EQ(db.index_stats().indexes_built.value(), 0u);
  // The slot was handed back: a later caller rebuilds successfully.
  const HashIndex* rebuilt = db.TryGetOrBuildIndex(0, {0}, {});
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(db.index_stats().indexes_built.value(), 1u);
}

TEST(IndexBuildInterrupt, ExecuteBlockAbortsCleanlyAtEveryPollDepth) {
  // ExecuteBlock's hash-join build side must consult the interrupt inside
  // the build, not only after it. Sweeping the firing poll across the
  // call's whole poll sequence lands aborts inside the scan morsels AND
  // inside the index build (a 3-stride table polls >= 3 times there); every
  // abort must surface as ResourceExhausted, publish no half-built index
  // the rerun could not rebuild, and leave the database fully usable.
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  for (size_t fire_at : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         size_t{16}}) {
    // Fresh database per depth: the lazy index cache must start unbuilt for
    // the build-side polls to exist at all.
    Database db = BigTableDb();
    Rng qrng(13);
    auto wq = RandomCpjQuery(db, &qrng, q_opts);
    ASSERT_TRUE(wq.ok());
    size_t polls = 0;
    auto r = ExecuteBlock(db, wq->query, "block",
                          [&polls, fire_at] { return ++polls >= fire_at; });
    SCOPED_TRACE("fire_at=" + std::to_string(fire_at));
    if (polls < fire_at) {
      // The whole call finished within fewer polls; nothing to abort.
      EXPECT_TRUE(r.ok());
      continue;
    }
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    // The same call without an interrupt succeeds on the same database.
    EXPECT_TRUE(ExecuteBlock(db, wq->query, "block").ok());
  }
}

}  // namespace
}  // namespace fastqre
