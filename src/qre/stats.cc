#include "qre/stats.h"

#include "common/strings.h"

namespace fastqre {

std::string QreStats::ToString() const {
  std::string out;
  out += StringFormat("total time:            %.4fs\n", total_seconds);
  out += StringFormat("column cover:          %.4fs (%llu pairs: %llu pruned, %llu checked)\n",
                      cover_seconds,
                      static_cast<unsigned long long>(cover_pairs_total),
                      static_cast<unsigned long long>(cover_pairs_pruned),
                      static_cast<unsigned long long>(cover_pairs_checked));
  out += StringFormat("CGM discovery:         %.4fs (%llu candidates, %llu maximal CGMs)\n",
                      cgm_seconds,
                      static_cast<unsigned long long>(cgm_candidates_checked),
                      static_cast<unsigned long long>(num_cgms));
  out += StringFormat("mappings tried:        %llu\n",
                      static_cast<unsigned long long>(mappings_tried));
  out += StringFormat("walks discovered:      %llu\n",
                      static_cast<unsigned long long>(walks_discovered));
  out += StringFormat("candidates generated:  %llu (%llu walk sets expanded)\n",
                      static_cast<unsigned long long>(candidates_generated),
                      static_cast<unsigned long long>(walk_sets_expanded));
  out += StringFormat("candidates validated:  %llu (%llu cancelled)\n",
                      static_cast<unsigned long long>(candidates_validated),
                      static_cast<unsigned long long>(candidates_cancelled));
  out += StringFormat("  pruned (dead sets):  %llu\n",
                      static_cast<unsigned long long>(candidates_pruned_dead));
  out += StringFormat("  dismissed by probe:  %llu\n",
                      static_cast<unsigned long long>(candidates_dismissed_probe));
  out += StringFormat("  dismissed by walks:  %llu (%llu coherence checks)\n",
                      static_cast<unsigned long long>(candidates_dismissed_walk),
                      static_cast<unsigned long long>(walk_coherence_checks));
  out += StringFormat("full validations:      %llu (%llu rows streamed)\n",
                      static_cast<unsigned long long>(full_validations),
                      static_cast<unsigned long long>(validation_rows));
  out += StringFormat("  rows by phase:       probe=%llu coherence=%llu alltuple=%llu fullscan=%llu\n",
                      static_cast<unsigned long long>(probe_rows),
                      static_cast<unsigned long long>(coherence_rows),
                      static_cast<unsigned long long>(alltuple_rows),
                      static_cast<unsigned long long>(fullscan_rows));
  out += StringFormat(
      "  extras fallbacks:    %llu (bounded stream -> block path)\n",
      static_cast<unsigned long long>(extras_block_fallbacks));
  out += StringFormat("walk cache:            hits=%llu misses=%llu evictions=%llu bytes=%llu\n",
                      static_cast<unsigned long long>(walk_cache_hits),
                      static_cast<unsigned long long>(walk_cache_misses),
                      static_cast<unsigned long long>(walk_cache_evictions),
                      static_cast<unsigned long long>(walk_cache_bytes));
  out += StringFormat("sideways passing:      %llu rows skipped\n",
                      static_cast<unsigned long long>(sip_rows_skipped));
  out += StringFormat("subplan cache:         hits=%llu misses=%llu evictions=%llu bytes=%llu\n",
                      static_cast<unsigned long long>(subplan_cache_hits),
                      static_cast<unsigned long long>(subplan_cache_misses),
                      static_cast<unsigned long long>(subplan_cache_evictions),
                      static_cast<unsigned long long>(subplan_cache_bytes));
  out += StringFormat("resource governor:     peak=%llu bytes, degradations=%llu, cancelled=%s\n",
                      static_cast<unsigned long long>(peak_tracked_bytes),
                      static_cast<unsigned long long>(degradation_events),
                      cancelled ? "yes" : "no");
  return out;
}

void QreStats::Accumulate(const QreStats& other) {
  cover_seconds += other.cover_seconds;
  cgm_seconds += other.cgm_seconds;
  cover_pairs_total += other.cover_pairs_total;
  cover_pairs_pruned += other.cover_pairs_pruned;
  cover_pairs_checked += other.cover_pairs_checked;
  cgm_candidates_checked += other.cgm_candidates_checked;
  num_cgms += other.num_cgms;
  mappings_tried += other.mappings_tried;
  walks_discovered += other.walks_discovered;
  candidates_generated += other.candidates_generated;
  candidates_validated += other.candidates_validated;
  candidates_cancelled += other.candidates_cancelled;
  walk_sets_expanded += other.walk_sets_expanded;
  candidates_pruned_dead += other.candidates_pruned_dead;
  candidates_dismissed_probe += other.candidates_dismissed_probe;
  candidates_dismissed_walk += other.candidates_dismissed_walk;
  walk_coherence_checks += other.walk_coherence_checks;
  full_validations += other.full_validations;
  validation_rows += other.validation_rows;
  probe_rows += other.probe_rows;
  coherence_rows += other.coherence_rows;
  alltuple_rows += other.alltuple_rows;
  fullscan_rows += other.fullscan_rows;
  extras_block_fallbacks += other.extras_block_fallbacks;
  walk_cache_hits += other.walk_cache_hits;
  walk_cache_misses += other.walk_cache_misses;
  walk_cache_evictions += other.walk_cache_evictions;
  walk_cache_bytes += other.walk_cache_bytes;
  sip_rows_skipped += other.sip_rows_skipped;
  subplan_cache_hits += other.subplan_cache_hits;
  subplan_cache_misses += other.subplan_cache_misses;
  subplan_cache_evictions += other.subplan_cache_evictions;
  subplan_cache_bytes += other.subplan_cache_bytes;
  // Peak is a high-water mark, not a tally: keep the max across runs.
  if (other.peak_tracked_bytes > peak_tracked_bytes) {
    peak_tracked_bytes = other.peak_tracked_bytes;
  }
  degradation_events += other.degradation_events;
  cancelled = cancelled || other.cancelled;
  total_seconds += other.total_seconds;
}

}  // namespace fastqre
