// E15 — sideways information passing (DESIGN.md §13), measured on the
// streaming-bound validation tail: the single-queue convoy with the walk
// cache off revalidates many concise-but-expensive candidates. SIP filters
// every join step of the block fallback and every scan/probe step of the
// pipelined cursor.
//
// Two sections share one table:
//   * convoy rows (1q composer, walk cache off): the SIP off/on ablation;
//     both cells must return the identical answer SQL (asserted here, not
//     just eyeballed — the binary exits 1 otherwise).
//   * small rows (2q composer, walk cache on, smallest scale): the overhead
//     guard — on inputs with little convoy work, SIP must never be
//     materially (>5%) slower than SIP off.
//
// SIP off runs first, so one-time lazy structures (indexes, patterns, CGM)
// warm on the baseline and the reported speedup is conservative.
// intra_threads stays 1: single-thread wins only.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "qre/fastqre.h"

using namespace fastqre;

int main() {
  const double budget = bench::BenchBudget(240.0);
  TablePrinter table("E15: SIP filters on the convoy tail",
                     {"mode", "scale", "query", "sip-off", "rows", "sip-on",
                      "rows", "sip skipped", "speedup"});

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
      const WorkloadQuery* wq = nullptr;
      for (const auto& w : workload) {
        if (w.name == qname) wq = &w;
      }
      // Untimed warmup: build the lazy indexes/patterns/filters once so no
      // cell pays one-time costs and cross-cell ratios are warm-vs-warm.
      {
        QreOptions warm;
        warm.use_two_queue_composer = sec.two_queue;
        warm.time_budget_seconds = budget;
        warm.walk_cache_budget_bytes = 0;
        FastQre engine(&db, warm);
        (void)engine.Reverse(wq->rout).ValueOrDie();
      }
      std::vector<std::string> row{sec.mode, StringFormat("%.4g", sec.scale),
                                   qname};
      double wall_off = 0, wall_on = 0;
      std::string sql_off;
      for (bool sip : {false, true}) {
        QreOptions opts;
        opts.use_two_queue_composer = sec.two_queue;
        opts.time_budget_seconds = budget;
        opts.walk_cache_budget_bytes = sec.walk_cache ? (64ull << 20) : 0;
        opts.walk_cache_admission = 0;
        opts.use_sip = sip;
        // Best of 3 on fresh engines: min squeezes out scheduler jitter.
        double wall = 0;
        QreAnswer a;
        for (int rep = 0; rep < 3; ++rep) {
          FastQre engine(&db, opts);
          Timer t;
          a = engine.Reverse(wq->rout).ValueOrDie();
          const double w = t.ElapsedSeconds();
          if (rep == 0 || w < wall) wall = w;
        }
        row.push_back(bench::ResultCell(a.found, !a.found, wall));
        row.push_back(FormatCount(a.stats.validation_rows));
        if (sip) {
          wall_on = wall;
          row.push_back(FormatCount(a.stats.sip_rows_skipped));
          // Semantics contract: both cells return the same SQL.
          if (a.sql != sql_off) identical = false;
        } else {
          wall_off = wall;
          sql_off = a.sql;
        }
      }
      row.push_back(wall_on > 0 ? StringFormat("%.2fx", wall_off / wall_on)
                                : "n/a");
      table.AddRow(std::move(row));
    }
  }
  table.Print();
  std::printf(
      "\nanswers %s across SIP off/on\n",
      identical ? "IDENTICAL" : "DIVERGED (BUG: SIP changed semantics)");
  std::printf(
      "\nShape check: SIP bitmap filters keep provably-dead rows out of the\n"
      "intermediates both executors materialize, while the answer SQL stays\n"
      "byte-identical. Validation rows count index matches before the SIP\n"
      "test, so they move only where SIP shrinks a driving relation. The\n"
      "small rows are the overhead guard: with little convoy work SIP must\n"
      "be within noise (<5%%) of SIP off.\n");
  return identical ? 0 : 1;
}
