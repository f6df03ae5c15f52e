// Block (materializing) PJ-query evaluation.
//
// The counterpart of the pipelined QueryCursor: evaluates the query
// bottom-up with hash joins, materializing each intermediate relation in
// full — "running it as a single block operation" in the paper's words
// (Section 4.1), i.e. the behaviour of a conventional DBMS executing a
// candidate query without a get-next interface. The naive baseline's
// non-progressive validation uses this path; it is also a differential
// oracle for the pipelined executor in tests, and the fallback of the
// validator's exact extra-tuple check.
//
// Execution is morsel-driven (DESIGN.md §12): each join step partitions its
// driving relation into fixed-size morsels, processed either on the calling
// thread or on a shared ThreadPool per the ExecPolicy, with per-morsel
// result buffers merged back in morsel-index order — so the output table is
// byte-identical at any thread count, morsel size, or kernel choice.
//
// SIP filters (policy.use_sip, DESIGN.md §13) ride on the policy and are
// semantics-preserving: at every join step, rows whose join value is
// provably absent from a future join partner's column are skipped before
// they enter an intermediate relation.
#pragma once

#include <functional>

#include "common/result.h"
#include "engine/compare.h"
#include "engine/exec_policy.h"
#include "engine/query.h"
#include "storage/database.h"

namespace fastqre {

/// \brief Per-run observability of one ExecuteBlock call. Valid when the
/// call returned OK or stopped at a subset-guard violation; error paths may
/// leave it partially filled.
struct BlockRunStats {
  /// Pre-filter match rows enumerated across all join steps.
  uint64_t rows_enumerated = 0;
  /// Rows skipped by SIP filters (each had a join value provably absent
  /// from some future join partner).
  uint64_t sip_rows_skipped = 0;
};

/// \brief Evaluates `query` with materializing hash joins and returns the
/// full *distinct* projected result as a table named `name`.
///
/// Unlike QueryCursor there is no early exit of any kind — the cost of the
/// whole join is always paid, which is exactly the behaviour the
/// progressive-evaluation component is designed to avoid — with one opt-in
/// exception: when `subset_guard` is non-null, projection stops at the first
/// distinct tuple NOT contained in the guard set, setting `*subset_violated`
/// (which must be non-null then) and returning the partial table. That turns
/// the block path into an exact extra-tuple check: guard = R_out, violation
/// = the candidate produces a tuple outside it.
/// `interrupt` (may be empty) is polled once per morsel of work — including
/// inside hash-index builds this call triggers — and when it fires the
/// evaluation stops with ResourceExhausted within one morsel.
/// `policy` picks the morsel dispatch (serial vs pool workers) and SIP
/// filtering; the returned table is byte-identical under every combination.
/// `run_stats` (may be null) receives per-run counters.
Result<Table> ExecuteBlock(const Database& db, const PJQuery& query,
                           const std::string& name,
                           std::function<bool()> interrupt = {},
                           const ExecPolicy& policy = {},
                           const TupleSet* subset_guard = nullptr,
                           bool* subset_violated = nullptr,
                           BlockRunStats* run_stats = nullptr);

}  // namespace fastqre
