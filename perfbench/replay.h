// Serial replay of FastQre::ReverseAll through the public calls of each
// qre layer, timing every call with a span. The replay repeats the
// engine's serial pipeline step for step, so its answers and counters must
// equal the engine's; the benchmark checks that they do, which is what lets
// the per-layer numbers describe the program the end-to-end runs time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "qre/options.h"
#include "qre/stats.h"
#include "storage/database.h"
#include "stats_util.h"

namespace perfbench {

/// One entry of a ReverseAll answer stream, reduced to what the benchmark
/// compares: found answers by SQL, the unfound tail by its reason.
struct AnswerKey {
  bool found = false;
  std::string text;  // SQL when found, failure_reason otherwise
  bool operator==(const AnswerKey& o) const {
    return found == o.found && text == o.text;
  }
};

/// Time (ms) spent inside each layer call of one replayed request.
struct LayerTimes {
  double cover_ms = 0;
  double cgm_ms = 0;
  double mapping_ms = 0;
  double walks_ms = 0;
  double compose_ms = 0;
  double validate_ms = 0;
  double total_ms = 0;  // the whole replay, normalization included
};

struct ReplayResult {
  std::vector<AnswerKey> answers;
  /// The stats the engine attaches to the last entry of the stream.
  fastqre::QreStats stats;
  LayerTimes times;
  /// Validator::Validate calls that returned a generating verdict.
  uint64_t generating_verdicts = 0;
};

/// Replays `ReverseAll(rout, limit)` of a fresh engine with `options`
/// (validation_threads must be 1). Spans go to `trace` under `request`.
fastqre::Result<ReplayResult> ReplayReverseAll(
    const fastqre::Database& db, const fastqre::Table& rout,
    const fastqre::QreOptions& options, int limit, Trace* trace,
    uint64_t request);

/// Names of the QreStats counters on which two runs of one request differ
/// (empty when they agree). Only deterministic search and validation
/// counters are compared; gauges and times are not.
std::vector<std::string> CounterMismatches(const fastqre::QreStats& a,
                                           const fastqre::QreStats& b);

}  // namespace perfbench
