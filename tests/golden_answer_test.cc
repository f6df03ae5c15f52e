// Golden answer SQL for the L01-L10 ladder (TPC-H SF 0.001, data seed 42),
// pinned in the ASSERT_STREQ(... to_sql()) idiom. The strings were recorded
// from the engine before the exact extras check became a bounded stream with
// a block fallback (DESIGN.md §13); both paths are exact, so every answer
// must stay byte-identical. ReverseAll(3) is pinned at one validation thread
// only: its later answers may differ across thread counts (DESIGN.md §8,
// "Known gap").
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "qre/fastqre.h"

namespace fastqre {
namespace {

struct Golden {
  const char* query;
  const char* answers[3];  // ReverseAll(3) in rank order
};

const Golden kGolden[] = {
    {"L01",
     {"SELECT nation1.n_name, region1.r_name FROM nation nation1, region "
      "region1 WHERE nation1.n_regionkey=region1.r_regionkey",
      "SELECT nation1.n_name, region1.r_name FROM nation nation1, region "
      "region1, region region2, nation nation2 WHERE "
      "nation1.n_regionkey=region2.r_regionkey AND "
      "region2.r_regionkey=nation2.n_regionkey AND "
      "nation2.n_regionkey=region1.r_regionkey",
      "SELECT nation1.n_name, region1.r_name FROM nation nation1, region "
      "region1, region region2, nation nation2 WHERE "
      "nation1.n_regionkey=region1.r_regionkey AND "
      "nation1.n_regionkey=region2.r_regionkey AND "
      "region2.r_regionkey=nation2.n_regionkey AND "
      "nation2.n_regionkey=region1.r_regionkey"}},
    {"L02",
     {"SELECT supplier1.s_name, nation1.n_name FROM supplier supplier1, "
      "nation nation1 WHERE supplier1.s_nationkey=nation1.n_nationkey",
      "SELECT supplier1.s_name, nation1.n_name FROM supplier supplier1, "
      "nation nation1, nation nation2, supplier supplier2 WHERE "
      "supplier1.s_nationkey=nation2.n_nationkey AND "
      "nation2.n_nationkey=supplier2.s_nationkey AND "
      "supplier2.s_nationkey=nation1.n_nationkey",
      "SELECT supplier1.s_name, nation1.n_name FROM supplier supplier1, "
      "nation nation1, nation nation2, supplier supplier2 WHERE "
      "supplier1.s_nationkey=nation1.n_nationkey AND "
      "supplier1.s_nationkey=nation2.n_nationkey AND "
      "nation2.n_nationkey=supplier2.s_nationkey AND "
      "supplier2.s_nationkey=nation1.n_nationkey"}},
    {"L03",
     {"SELECT customer1.c_name, nation1.n_name, region1.r_name FROM customer "
      "customer1, nation nation1, region region1 WHERE "
      "customer1.c_nationkey=nation1.n_nationkey AND "
      "nation1.n_regionkey=region1.r_regionkey",
      "SELECT customer1.c_name, nation1.n_name, region1.r_name FROM customer "
      "customer1, nation nation1, region region1, nation nation2 WHERE "
      "customer1.c_nationkey=nation1.n_nationkey AND "
      "customer1.c_nationkey=nation2.n_nationkey AND "
      "nation2.n_regionkey=region1.r_regionkey",
      "SELECT customer1.c_name, nation1.n_name, region1.r_name FROM customer "
      "customer1, nation nation1, region region1, nation nation2 WHERE "
      "customer1.c_nationkey=nation1.n_nationkey AND "
      "customer1.c_nationkey=nation2.n_nationkey AND "
      "nation2.n_regionkey=region1.r_regionkey AND "
      "nation1.n_regionkey=region1.r_regionkey"}},
    {"L04",
     {"SELECT supplier1.s_name, part1.p_name, partsupp1.ps_availqty FROM "
      "supplier supplier1, part part1, partsupp partsupp1 WHERE "
      "supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "part1.p_partkey=partsupp1.ps_partkey",
      "SELECT supplier1.s_name, part1.p_name, partsupp1.ps_availqty FROM "
      "supplier supplier1, part part1, partsupp partsupp1, lineitem lineitem1 "
      "WHERE supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "part1.p_partkey=lineitem1.l_partkey AND "
      "lineitem1.l_partkey=partsupp1.ps_partkey",
      "SELECT supplier1.s_name, part1.p_name, partsupp1.ps_availqty FROM "
      "supplier supplier1, part part1, partsupp partsupp1, lineitem lineitem1 "
      "WHERE supplier1.s_suppkey=lineitem1.l_suppkey AND "
      "lineitem1.l_suppkey=partsupp1.ps_suppkey AND "
      "part1.p_partkey=partsupp1.ps_partkey"}},
    {"L05",
     {"SELECT supplier1.s_name, part1.p_name FROM supplier supplier1, part "
      "part1, partsupp partsupp1 WHERE "
      "supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "partsupp1.ps_partkey=part1.p_partkey",
      "SELECT supplier1.s_name, part1.p_name FROM supplier supplier1, part "
      "part1, lineitem lineitem1 WHERE "
      "supplier1.s_suppkey=lineitem1.l_suppkey AND "
      "lineitem1.l_partkey=part1.p_partkey",
      "SELECT supplier1.s_name, part1.p_name FROM supplier supplier1, part "
      "part1, partsupp partsupp1, lineitem lineitem1 WHERE "
      "supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "partsupp1.ps_partkey=lineitem1.l_partkey AND "
      "lineitem1.l_partkey=part1.p_partkey"}},
    {"L06",
     {"SELECT lineitem1.l_orderkey, part1.p_name, lineitem1.l_quantity FROM "
      "lineitem lineitem1, part part1 WHERE "
      "lineitem1.l_partkey=part1.p_partkey",
      "SELECT lineitem1.l_orderkey, part1.p_name, lineitem1.l_quantity FROM "
      "lineitem lineitem1, part part1, partsupp partsupp1 WHERE "
      "lineitem1.l_partkey=partsupp1.ps_partkey AND "
      "partsupp1.ps_partkey=part1.p_partkey",
      "SELECT lineitem1.l_orderkey, part1.p_name, lineitem1.l_quantity FROM "
      "lineitem lineitem1, part part1, partsupp partsupp1 WHERE "
      "lineitem1.l_partkey=part1.p_partkey AND "
      "lineitem1.l_partkey=partsupp1.ps_partkey AND "
      "partsupp1.ps_partkey=part1.p_partkey"}},
    {"L07",
     {"SELECT region1.r_name, nation1.n_name, supplier1.s_name, part1.p_name "
      "FROM region region1, nation nation1, supplier supplier1, part part1, "
      "partsupp partsupp1 WHERE region1.r_regionkey=nation1.n_regionkey AND "
      "nation1.n_nationkey=supplier1.s_nationkey AND "
      "supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "partsupp1.ps_partkey=part1.p_partkey",
      "SELECT region1.r_name, nation1.n_name, supplier1.s_name, part1.p_name "
      "FROM region region1, nation nation1, supplier supplier1, part part1, "
      "lineitem lineitem1 WHERE region1.r_regionkey=nation1.n_regionkey AND "
      "nation1.n_nationkey=supplier1.s_nationkey AND "
      "supplier1.s_suppkey=lineitem1.l_suppkey AND "
      "lineitem1.l_partkey=part1.p_partkey",
      "SELECT region1.r_name, nation1.n_name, supplier1.s_name, part1.p_name "
      "FROM region region1, nation nation1, supplier supplier1, part part1, "
      "nation nation2, partsupp partsupp1 WHERE "
      "region1.r_regionkey=nation2.n_regionkey AND "
      "nation2.n_nationkey=supplier1.s_nationkey AND "
      "nation1.n_nationkey=supplier1.s_nationkey AND "
      "supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "partsupp1.ps_partkey=part1.p_partkey"}},
    {"L08",
     {"SELECT customer1.c_name, supplier1.s_name, nation1.n_name FROM "
      "customer customer1, supplier supplier1, nation nation1 WHERE "
      "customer1.c_nationkey=nation1.n_nationkey AND "
      "supplier1.s_nationkey=nation1.n_nationkey",
      "SELECT customer1.c_name, supplier1.s_name, nation1.n_name FROM "
      "customer customer1, supplier supplier1, nation nation1, nation nation2 "
      "WHERE customer1.c_nationkey=nation2.n_nationkey AND "
      "nation2.n_nationkey=supplier1.s_nationkey AND "
      "customer1.c_nationkey=nation1.n_nationkey",
      "SELECT customer1.c_name, supplier1.s_name, nation1.n_name FROM "
      "customer customer1, supplier supplier1, nation nation1, nation nation2 "
      "WHERE customer1.c_nationkey=nation2.n_nationkey AND "
      "nation2.n_nationkey=supplier1.s_nationkey AND "
      "supplier1.s_nationkey=nation1.n_nationkey"}},
    {"L09",
     {"SELECT supplier1.s_suppkey, supplier1.s_name, supplier2.s_suppkey, "
      "supplier2.s_name FROM supplier supplier1, supplier supplier2, nation "
      "nation1 WHERE supplier1.s_nationkey=nation1.n_nationkey AND "
      "nation1.n_nationkey=supplier2.s_nationkey",
      "SELECT supplier1.s_suppkey, supplier1.s_name, supplier2.s_suppkey, "
      "supplier2.s_name FROM supplier supplier1, supplier supplier2, nation "
      "nation1, partsupp partsupp1, lineitem lineitem1 WHERE "
      "supplier1.s_nationkey=nation1.n_nationkey AND "
      "nation1.n_nationkey=supplier2.s_nationkey AND "
      "supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "partsupp1.ps_partkey=lineitem1.l_partkey AND "
      "lineitem1.l_suppkey=supplier2.s_suppkey",
      "SELECT supplier1.s_suppkey, supplier1.s_name, supplier2.s_suppkey, "
      "supplier3.s_name FROM supplier supplier1, supplier supplier2, supplier "
      "supplier3, nation nation1, partsupp partsupp1 WHERE "
      "supplier1.s_nationkey=nation1.n_nationkey AND "
      "nation1.n_nationkey=supplier2.s_nationkey AND "
      "supplier2.s_suppkey=partsupp1.ps_suppkey AND "
      "partsupp1.ps_suppkey=supplier3.s_suppkey"}},
    {"L10",
     {"SELECT supplier1.s_suppkey, supplier1.s_name, partsupp1.ps_availqty, "
      "supplier2.s_suppkey, supplier2.s_name FROM supplier supplier1, "
      "partsupp partsupp1, supplier supplier2, nation nation1, lineitem "
      "lineitem1 WHERE supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "supplier1.s_nationkey=nation1.n_nationkey AND "
      "nation1.n_nationkey=supplier2.s_nationkey AND "
      "partsupp1.ps_partkey=lineitem1.l_partkey AND "
      "lineitem1.l_suppkey=supplier2.s_suppkey",
      "SELECT supplier1.s_suppkey, supplier1.s_name, partsupp1.ps_availqty, "
      "supplier2.s_suppkey, supplier2.s_name FROM supplier supplier1, "
      "partsupp partsupp1, supplier supplier2, nation nation1, part part1, "
      "partsupp partsupp2 WHERE supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "supplier1.s_nationkey=nation1.n_nationkey AND "
      "nation1.n_nationkey=supplier2.s_nationkey AND "
      "partsupp1.ps_partkey=part1.p_partkey AND "
      "part1.p_partkey=partsupp2.ps_partkey AND "
      "partsupp2.ps_suppkey=supplier2.s_suppkey",
      "SELECT supplier1.s_suppkey, supplier1.s_name, partsupp1.ps_availqty, "
      "supplier2.s_suppkey, supplier2.s_name FROM supplier supplier1, "
      "partsupp partsupp1, supplier supplier2, nation nation1, part part1, "
      "lineitem lineitem1 WHERE supplier1.s_suppkey=partsupp1.ps_suppkey AND "
      "supplier1.s_nationkey=nation1.n_nationkey AND "
      "nation1.n_nationkey=supplier2.s_nationkey AND "
      "partsupp1.ps_partkey=part1.p_partkey AND "
      "part1.p_partkey=lineitem1.l_partkey AND "
      "lineitem1.l_suppkey=supplier2.s_suppkey"}},
};

// One database for the whole suite: the engine is const over it, and its
// lazy caches build each entry once whichever test gets there first.
const Database& LadderDb() {
  static const Database db =
      BuildTpch({.scale_factor = 0.001, .seed = 42}).ValueOrDie();
  return db;
}

const std::vector<WorkloadQuery>& Ladder() {
  static const std::vector<WorkloadQuery> workload =
      StandardTpchWorkload(LadderDb()).ValueOrDie();
  return workload;
}

TEST(GoldenAnswerTest, ReverseAllThreeMatchesGoldenAndUsesBothExtrasPaths) {
  ASSERT_EQ(Ladder().size(), std::size(kGolden));
  uint64_t fallbacks = 0;
  int stream_only_queries = 0;
  for (size_t q = 0; q < std::size(kGolden); ++q) {
    const Golden& g = kGolden[q];
    SCOPED_TRACE(g.query);
    ASSERT_EQ(Ladder()[q].name, g.query);
    FastQre engine(&LadderDb(), QreOptions());
    std::vector<QreAnswer> got =
        engine.ReverseAll(Ladder()[q].rout, 3).ValueOrDie();
    ASSERT_EQ(got.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(got[i].found) << got[i].failure_reason;
      ASSERT_STREQ(g.answers[i], got[i].sql.c_str());
    }
    const QreStats& s = got.back().stats;
    fallbacks += s.extras_block_fallbacks;
    // Extras checks ran, and none fell back: each ended in the stream.
    if (s.fullscan_rows > 0 && s.extras_block_fallbacks == 0) {
      ++stream_only_queries;
    }
  }
  // Neither side of the stream's cap may pass vacuously.
  EXPECT_GT(stream_only_queries, 0);
  EXPECT_GT(fallbacks, 0u);
}

TEST(GoldenAnswerTest, ReverseMatchesGoldenAtOneAndFourThreads) {
  for (int threads : {1, 4}) {
    QreOptions opts;
    opts.validation_threads = threads;
    for (size_t q = 0; q < std::size(kGolden); ++q) {
      SCOPED_TRACE(std::string(kGolden[q].query) +
                   " threads=" + std::to_string(threads));
      FastQre engine(&LadderDb(), opts);
      QreAnswer got = engine.Reverse(Ladder()[q].rout).ValueOrDie();
      ASSERT_TRUE(got.found) << got.failure_reason;
      ASSERT_STREQ(kGolden[q].answers[0], got.sql.c_str());
    }
  }
}

}  // namespace
}  // namespace fastqre
