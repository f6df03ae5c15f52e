#include "replay.h"

#include <algorithm>
#include <memory>

#include "common/resource_governor.h"
#include "engine/compare.h"
#include "engine/exec_policy.h"
#include "engine/subplan_cache.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/composer.h"
#include "qre/feedback.h"
#include "qre/mapping.h"
#include "qre/validator.h"
#include "qre/walk_cache.h"
#include "qre/walks.h"

namespace perfbench {

using namespace fastqre;

namespace {

// The engine's R_out normalization (re-encode against the database
// dictionary, drop duplicate rows); it has no public entry point.
Result<Table> NormalizeRout(const Database& db, const Table& rout) {
  Table out(rout.name(), db.dictionary());
  for (size_t c = 0; c < rout.num_columns(); ++c) {
    FASTQRE_RETURN_NOT_OK(
        out.AddColumn(rout.column(c).name(), rout.column(c).type()));
  }
  const bool same_dict = rout.dictionary() == db.dictionary();
  TupleSet seen;
  for (RowId r = 0; r < rout.num_rows(); ++r) {
    std::vector<ValueId> ids = rout.RowIds(r);
    if (!same_dict) {
      for (size_t c = 0; c < rout.num_columns(); ++c) {
        ids[c] = db.dictionary()->Intern(rout.dictionary()->Get(ids[c]));
      }
    }
    if (seen.insert(ids).second) out.AppendRowIds(ids);
  }
  return out;
}

// The replay proper; every span it opens nests under the caller's.
Result<ReplayResult> Replay(const Database& db, const Table& rout,
                            const QreOptions& options, int limit,
                            Trace* trace, uint64_t request) {
  ReplayResult result;
  LayerTimes& t = result.times;

  // The engine's per-call state, built as FastQre's constructor builds it.
  auto token = std::make_shared<CancellationToken>();
  auto governor = std::make_shared<ResourceGovernor>(
      options.memory_budget_bytes, token);
  std::shared_ptr<WalkCache> walk_cache;
  if (options.walk_cache_budget_bytes > 0) {
    walk_cache = std::make_shared<WalkCache>(options.walk_cache_budget_bytes,
                                             options.walk_cache_admission,
                                             governor);
  }
  std::shared_ptr<SubplanCache> subplan_cache;
  if (options.subplan_cache_budget_bytes > 0) {
    subplan_cache = std::make_shared<SubplanCache>(
        options.subplan_cache_budget_bytes, options.subplan_cache_admission,
        governor);
  }
  std::weak_ptr<WalkCache> wcache = walk_cache;
  std::weak_ptr<SubplanCache> scache = subplan_cache;
  governor->SetPressureHook([wcache, scache] {
    if (auto c = wcache.lock()) c->ShrinkTo(c->budget_bytes() / 2);
    if (auto c = scache.lock()) c->ShrinkTo(c->budget_bytes() / 2);
  });
  db.AttachGovernor(governor);
  struct Detach {
    const Database& db;
    const ResourceGovernor* governor;
    ~Detach() { db.DetachGovernor(governor); }
  } detach{db, governor.get()};

  RunControl run(options.time_budget_seconds, token.get(), governor.get());
  auto budget_exceeded = [&run]() { return run.ShouldStop(); };
  ExecPolicy policy;
  policy.batch_probes = options.use_batched_probes;
  policy.morsel_size = static_cast<size_t>(std::max(1, options.morsel_size));
  policy.intra_threshold =
      static_cast<size_t>(std::max(0, options.intra_row_threshold));
  policy.use_sip = options.use_sip;
  policy.subplan_cache = subplan_cache.get();
  policy.governor = governor;

  QreStats stats;
  auto snapshot = [&](QreStats s) {
    s.walk_cache_bytes = walk_cache ? walk_cache->bytes() : 0;
    if (subplan_cache != nullptr) {
      s.subplan_cache_hits = subplan_cache->hits();
      s.subplan_cache_misses = subplan_cache->misses();
      s.subplan_cache_evictions = subplan_cache->evictions();
      s.subplan_cache_bytes = subplan_cache->bytes();
    }
    s.peak_tracked_bytes = governor->peak_tracked_bytes();
    s.degradation_events = governor->degradation_events();
    s.total_seconds = run.ElapsedSeconds();
    return s;
  };
  auto finish = [&](const std::string& reason) {
    result.answers.push_back(AnswerKey{false, reason});
    result.stats = snapshot(stats);
    return result;
  };

  FASTQRE_ASSIGN_OR_RETURN(Table norm, NormalizeRout(db, rout));
  const TupleSet rout_set = TableToTupleSet(norm, budget_exceeded);

  ColumnCover cover;
  {
    SpanScope span(trace, "qre.preprocess.cover", request, &t.cover_ms);
    cover = ComputeColumnCover(db, norm, options, &stats);
  }
  if (cover.HasEmptyCover()) {
    return finish(
        "some R_out column is contained in no database column; no PJ query "
        "can generate R_out");
  }
  CgmSet cgms;
  if (options.use_cgm_ranking) {
    SpanScope span(trace, "qre.preprocess.cgm", request, &t.cgm_ms);
    cgms = DiscoverCgms(db, norm, cover, options, &stats, budget_exceeded,
                        governor.get());
  }
  if (run.ShouldStop()) return Status::Internal("replay stopped early");

  MappingEnumerator mappings(&db, &norm, &cover,
                             options.use_cgm_ranking ? &cgms : nullptr,
                             &options, budget_exceeded, governor.get());
  int found = 0;
  for (int m = 0; m < options.max_mappings; ++m) {
    ColumnMapping mapping;
    bool more = false;
    {
      SpanScope span(trace, "qre.search.mapping", request, &t.mapping_ms);
      more = mappings.Next(&mapping);
    }
    if (!more) break;
    ++stats.mappings_tried;

    std::vector<Walk> walks;
    if (mapping.instances.size() > 1) {
      SpanScope span(trace, "qre.search.walks", request, &t.walks_ms);
      walks = DiscoverWalks(db, mapping, options);
      stats.walks_discovered += walks.size();
    }
    if (mapping.instances.size() > 1 && walks.empty()) continue;

    Feedback feedback(walks.size());
    RankedComposer composer(&db, &mapping, &walks, &options, &feedback,
                            budget_exceeded);
    Validator validator(&db, &norm, &rout_set, &mapping, &walks, &options,
                        &feedback, &stats, walk_cache.get(), budget_exceeded,
                        policy);
    for (uint64_t tried = 0; tried < options.max_candidates_per_mapping;
         ++tried) {
      CandidateQuery candidate;
      bool next = false;
      {
        SpanScope span(trace, "qre.search.compose", request, &t.compose_ms);
        next = composer.Next(&candidate);
      }
      if (!next) break;
      ++stats.candidates_generated;
      CandidateOutcome outcome;
      {
        SpanScope span(trace, "qre.validate", request, &t.validate_ms);
        outcome = validator.Validate(candidate);
      }
      if (outcome == CandidateOutcome::kBudgetExhausted) {
        return Status::Internal("replay stopped early");
      }
      ++stats.candidates_validated;
      if (outcome == CandidateOutcome::kGenerating) {
        ++result.generating_verdicts;
        QreStats s = stats;
        s.candidates_pruned_dead += composer.sets_pruned_dead();
        s.walk_sets_expanded += composer.sets_expanded();
        result.answers.push_back(AnswerKey{true, candidate.query.ToSql(db)});
        result.stats = snapshot(s);
        if (++found >= limit) return result;
      } else if (outcome == CandidateOutcome::kMissingTuples &&
                 options.use_feedback_pruning && !candidate.walk_ids.empty()) {
        feedback.AddDeadSet(candidate.walk_ids);
      }
    }
    stats.candidates_pruned_dead += composer.sets_pruned_dead();
    stats.walk_sets_expanded += composer.sets_expanded();
  }
  if (found > 0) return result;
  return finish("search space exhausted without finding a generating query");
}

}  // namespace

Result<ReplayResult> ReplayReverseAll(const Database& db, const Table& rout,
                                      const QreOptions& options, int limit,
                                      Trace* trace, uint64_t request) {
  if (options.validation_threads != 1) {
    return Status::InvalidArgument("the replay is serial");
  }
  trace->Begin("replay", request);
  auto result = Replay(db, rout, options, limit, trace, request);
  const double total_us = trace->End();
  if (result.ok()) result->times.total_ms = total_us / 1e3;
  return result;
}

std::vector<std::string> CounterMismatches(const QreStats& a,
                                           const QreStats& b) {
  std::vector<std::string> out;
#define PERFBENCH_CMP(field) \
  if (a.field.value() != b.field.value()) out.push_back(#field)
  PERFBENCH_CMP(cover_pairs_checked);
  PERFBENCH_CMP(cgm_candidates_checked);
  PERFBENCH_CMP(num_cgms);
  PERFBENCH_CMP(mappings_tried);
  PERFBENCH_CMP(walks_discovered);
  PERFBENCH_CMP(candidates_generated);
  PERFBENCH_CMP(candidates_validated);
  PERFBENCH_CMP(walk_sets_expanded);
  PERFBENCH_CMP(candidates_pruned_dead);
  PERFBENCH_CMP(candidates_dismissed_probe);
  PERFBENCH_CMP(candidates_dismissed_walk);
  PERFBENCH_CMP(walk_coherence_checks);
  PERFBENCH_CMP(full_validations);
  PERFBENCH_CMP(validation_rows);
  PERFBENCH_CMP(probe_rows);
  PERFBENCH_CMP(coherence_rows);
  PERFBENCH_CMP(alltuple_rows);
  PERFBENCH_CMP(fullscan_rows);
  PERFBENCH_CMP(walk_cache_hits);
  PERFBENCH_CMP(walk_cache_misses);
  PERFBENCH_CMP(subplan_cache_hits);
  PERFBENCH_CMP(subplan_cache_misses);
  PERFBENCH_CMP(sip_rows_skipped);
#undef PERFBENCH_CMP
  return out;
}

}  // namespace perfbench
