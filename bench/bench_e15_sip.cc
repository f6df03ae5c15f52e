// E15 — sideways information passing and cross-candidate subplan
// memoization (DESIGN.md §13), measured on the streaming-bound validation
// tail: the single-queue convoy with the walk cache off revalidates many
// concise-but-expensive candidates. The cache only memoizes the block
// fallback of the exact extras check, which a candidate reaches when its
// bounded stream ends undecided (E18), so the cache axis now moves far less
// than the >= 3x E15 first recorded.
//
// Two sections share one table:
//   * convoy rows (1q composer, walk cache off): the 2x2 ablation —
//     {SIP off/on} x {subplan cache off/on}; every cell must return the
//     identical answer SQL (asserted here, not just eyeballed).
//   * small rows (2q composer, walk cache on, smallest scale): the overhead
//     guard — on inputs with little convoy work, SIP + cache must never be
//     materially (>5%) slower than both-off.
//
// Cell order runs both-off first, so one-time lazy structures (indexes,
// patterns, CGM) warm on the baseline and the reported speedup is
// conservative. intra_threads stays 1: single-thread wins only.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "qre/fastqre.h"

using namespace fastqre;

namespace {

struct Cell {
  const char* name;
  bool sip;
  bool cache;
};

constexpr Cell kCells[] = {
    {"both-off", false, false},
    {"sip-only", true, false},
    {"cache-only", false, true},
    {"both-on", true, true},
};

}  // namespace

int main() {
  const double budget = bench::BenchBudget(240.0);
  TablePrinter table(
      "E15: SIP filters x subplan memoization on the convoy tail",
      {"mode", "scale", "query", "both-off", "rows", "sip-only", "cache-only",
       "both-on", "rows", "speedup"});

  struct Section {
    const char* mode;
    bool two_queue;
    bool walk_cache;
    double scale;
  };
  const double s0 = bench::BenchScale(0.004);
  bool identical = true;
  for (const Section sec :
       {Section{"convoy", false, false, s0 / 2},
        Section{"convoy", false, false, s0},
        Section{"small", true, true, bench::BenchScale(0.001)}}) {
    Database db =
        BuildTpch({.scale_factor = sec.scale, .seed = 42}).ValueOrDie();
    auto workload = StandardTpchWorkload(db).ValueOrDie();
    for (const char* qname : {"L09", "L10"}) {
      // Untimed warmup: build the lazy indexes/patterns/filters once so no
      // cell pays one-time costs and cross-cell ratios are warm-vs-warm.
      for (const auto& w : workload) {
        if (w.name != qname) continue;
        QreOptions warm;
        warm.use_two_queue_composer = sec.two_queue;
        warm.time_budget_seconds = budget;
        warm.walk_cache_budget_bytes = 0;
        warm.subplan_cache_budget_bytes = 0;
        FastQre engine(&db, warm);
        (void)engine.Reverse(w.rout).ValueOrDie();
      }
      const WorkloadQuery* wq = nullptr;
      for (const auto& w : workload) {
        if (w.name == qname) wq = &w;
      }
      std::vector<std::string> row{sec.mode, StringFormat("%.4g", sec.scale),
                                   qname};
      double wall_off = 0, wall_on = 0;
      std::string sql_off;
      uint64_t rows_off = 0, rows_on = 0;
      for (const Cell& cell : kCells) {
        QreOptions opts;
        opts.use_two_queue_composer = sec.two_queue;
        opts.time_budget_seconds = budget;
        opts.walk_cache_budget_bytes = sec.walk_cache ? (64ull << 20) : 0;
        opts.walk_cache_admission = 0;
        opts.use_sip = cell.sip;
        opts.subplan_cache_budget_bytes = cell.cache ? (256ull << 20) : 0;
        opts.subplan_cache_admission = 0;
        // Best of 3: each rep uses a fresh engine (and so a fresh subplan
        // cache — no cross-rep reuse), min squeezes out scheduler jitter.
        double wall = 0;
        QreAnswer a;
        for (int rep = 0; rep < 3; ++rep) {
          FastQre engine(&db, opts);
          Timer t;
          a = engine.Reverse(wq->rout).ValueOrDie();
          const double w = t.ElapsedSeconds();
          if (rep == 0 || w < wall) wall = w;
        }
        if (cell.sip && cell.cache) {
          wall_on = wall;
          rows_on = a.stats.validation_rows;
        }
        if (!cell.sip && !cell.cache) {
          wall_off = wall;
          sql_off = a.sql;
          rows_off = a.stats.validation_rows;
          row.push_back(bench::ResultCell(a.found, !a.found, wall));
          row.push_back(FormatCount(rows_off));
        } else {
          row.push_back(bench::ResultCell(a.found, !a.found, wall));
          // Semantics contract: every ablation cell returns the same SQL.
          if (a.sql != sql_off) identical = false;
        }
        if (cell.sip && cell.cache) row.push_back(FormatCount(rows_on));
      }
      row.push_back(wall_on > 0 ? StringFormat("%.2fx", wall_off / wall_on)
                                : "n/a");
      table.AddRow(std::move(row));
    }
  }
  table.Print();
  std::printf(
      "\nanswers %s across all ablation cells\n",
      identical ? "IDENTICAL" : "DIVERGED (BUG: SIP/memo changed semantics)");
  std::printf(
      "\nShape check: on the convoy rows the subplan cache lets the second\n"
      "and later candidates of each convoy resume from a memoized join\n"
      "prefix, and SIP bitmap filters keep provably-dead rows out of the\n"
      "intermediates both executors materialize — wall clock drops while\n"
      "the answer SQL stays byte-identical in every cell. Validation rows\n"
      "differ only by the rows SIP provably skipped. The small rows are the\n"
      "overhead guard: with little convoy work both accelerations must be\n"
      "within noise (<5%%) of both-off.\n");
  return identical ? 0 : 1;
}
