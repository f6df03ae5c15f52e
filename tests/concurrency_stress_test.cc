// Stress tests for the thread-safe lazy caches: many threads hammering
// Database::GetOrBuildIndex / GetColumnPattern on overlapping keys must
// build each entry exactly once (per-key std::call_once) and always hand
// back the same object. Also stresses Dictionary::Intern and the per-column
// lazy statistics. Run under TSan in CI (FASTQRE_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/tpch.h"
#include "storage/database.h"
#include "storage/pattern.h"

namespace fastqre {
namespace {

constexpr int kThreads = 16;
constexpr int kRoundsPerThread = 40;

class CacheStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
  }
  Database db_;
};

TEST_F(CacheStressTest, IndexCacheBuildsEachKeyExactlyOnce) {
  // Every single-column index of every table, requested concurrently from
  // 16 threads in different orders — heavy overlap on a small key set.
  std::vector<std::pair<TableId, ColumnId>> keys;
  for (TableId t = 0; t < db_.num_tables(); ++t) {
    for (ColumnId c = 0; c < db_.table(t).num_columns(); ++c) {
      keys.emplace_back(t, c);
    }
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (size_t i = 0; i < keys.size(); ++i) {
          // Stagger the walk per thread so threads collide on different
          // keys at different times.
          const auto& key = keys[(i * (id + 1) + round) % keys.size()];
          const HashIndex& idx = db_.GetOrBuildIndex(key.first, {key.second});
          const HashIndex& again = db_.GetOrBuildIndex(key.first, {key.second});
          if (&idx != &again) mismatch = true;  // must be the cached object
          if (idx.columns() != std::vector<ColumnId>{key.second}) {
            mismatch = true;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(mismatch.load());
  // Exactly one build per distinct key, no matter how many threads raced.
  EXPECT_EQ(static_cast<uint64_t>(db_.index_stats().indexes_built),
            keys.size());
  // Every request after the first per key is a hit.
  const uint64_t requests =
      static_cast<uint64_t>(kThreads) * kRoundsPerThread * keys.size() * 2;
  EXPECT_EQ(static_cast<uint64_t>(db_.index_stats().cache_hits),
            requests - keys.size());
}

TEST_F(CacheStressTest, ConcurrentIndexesMatchSerialBuilds) {
  // A second database built identically, with indexes built serially, must
  // agree key-for-key with the concurrently-built cache.
  Database serial = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();

  int submitted = 0;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(kThreads);
    for (TableId t = 0; t < db_.num_tables(); ++t) {
      for (ColumnId c = 0; c < db_.table(t).num_columns(); ++c) {
        for (int dup = 0; dup < 4; ++dup) {  // duplicate requests on purpose
          pool.Submit([&, t, c] {
            db_.GetOrBuildIndex(t, {c});
            ++ran;
          });
          ++submitted;
        }
      }
    }
  }  // the destructor drains every queued build before joining
  EXPECT_EQ(ran.load(), submitted);

  for (TableId t = 0; t < db_.num_tables(); ++t) {
    for (ColumnId c = 0; c < db_.table(t).num_columns(); ++c) {
      const HashIndex& concurrent = db_.GetOrBuildIndex(t, {c});
      const HashIndex& reference = serial.GetOrBuildIndex(t, {c});
      EXPECT_EQ(concurrent.num_keys(), reference.num_keys())
          << db_.table(t).name() << "." << db_.table(t).column(c).name();
    }
  }
}

TEST_F(CacheStressTest, PatternCacheReturnsOneObjectPerColumn) {
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (TableId t = 0; t < db_.num_tables(); ++t) {
          for (ColumnId c = 0; c < db_.table(t).num_columns(); ++c) {
            const ColumnPattern& p = db_.GetColumnPattern(t, c);
            const ColumnPattern& q = db_.GetColumnPattern(t, c);
            if (&p != &q) mismatch = true;
            // A sealed TPC-H column is never empty, so its pattern must
            // describe at least one distinct value.
            if (p.num_distinct == 0) mismatch = true;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(mismatch.load());
}

TEST_F(CacheStressTest, ColumnLazyStatsAreConsistentUnderRaces) {
  // DistinctSet() / HasNulls() memoize on first call; concurrent first
  // calls must agree with a serial recomputation.
  const Table& table = db_.table(0);
  std::vector<size_t> distinct_counts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      size_t total = 0;
      for (ColumnId c = 0; c < table.num_columns(); ++c) {
        total += table.column(c).NumDistinct();
        (void)table.column(c).HasNulls();
      }
      distinct_counts[id] = total;
    });
  }
  for (auto& t : threads) t.join();
  for (int id = 1; id < kThreads; ++id) {
    EXPECT_EQ(distinct_counts[id], distinct_counts[0]);
  }
}

TEST(DictionaryStressTest, ConcurrentInternAssignsOneIdPerValue) {
  Dictionary dict;
  // Prime, so every thread's stride (id + 3) is coprime with it and each
  // thread visits all values, just in a different order.
  constexpr int kValues = 401;
  // Every thread interns the same value set in a different order; all must
  // observe identical ids.
  std::vector<std::vector<ValueId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      ids[id].resize(kValues);
      for (int i = 0; i < kValues; ++i) {
        int v = (i * (id + 3)) % kValues;
        ids[id][v] = dict.Intern(Value(static_cast<int64_t>(v)));
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int id = 1; id < kThreads; ++id) {
    EXPECT_EQ(ids[id], ids[0]);
  }
  // kValues distinct ints + the reserved NULL, nothing double-interned.
  EXPECT_EQ(dict.size(), static_cast<size_t>(kValues) + 1);
  std::set<ValueId> unique(ids[0].begin(), ids[0].end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kValues));
  for (int i = 0; i < kValues; ++i) {
    EXPECT_EQ(dict.Get(ids[0][i]), Value(static_cast<int64_t>(i)));
    EXPECT_EQ(dict.Find(Value(static_cast<int64_t>(i))), ids[0][i]);
  }
}

}  // namespace
}  // namespace fastqre
