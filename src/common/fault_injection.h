// Deterministic fault injection for the resource-governed search path
// (DESIGN.md §11).
//
// A FaultInjector holds rules parsed from QreOptions::fault_spec (or, when
// that is empty, the FASTQRE_FAULTS environment variable):
//
//     spec  := rule ("," rule)*
//     rule  := <site> "=" <kind> [ "@" <n> [ ".." <m> ] ]
//     kind  := "alloc-fail" | "cancel" | "delay"
//            | "short-write" | "reset" | "stall" | "garbage"
//
// `site` names an injection point from kFaultSites below (DESIGN.md §11
// describes each); Parse rejects any other name, so a stale or misspelt
// site fails loudly instead of silently injecting nothing. A rule fires
// from the <n>-th hit of its site onward (default 1), or only on hits
// <n>..<m> inclusive when a window is given — windows are what make
// destructive wire kinds recoverable: "reset@7..7"
// kills exactly one frame write and lets the retried stream through.
// Hits are counted per rule with a relaxed atomic, so a given spec
// produces the same injection schedule on every run — faults are part of
// the reproducible input, not a source of nondeterminism.
//
// Kinds:
//   alloc-fail  The governor charge at the site reports failure: optional
//               allocations degrade (the caller falls back), required ones
//               surface as memory exhaustion.
//   cancel      The engine's CancellationToken is cancelled, exactly as if
//               FastQre::Cancel() had been called at that moment.
//   delay       The hitting thread sleeps briefly (handled inside Hit()),
//               widening race windows for the sanitizer jobs.
//
// Wire kinds (DESIGN.md §15.5) — interpreted by the server's socket layer
// at its wire-accept / wire-read / wire-write sites, so hostile-network
// failure modes replay deterministically in ctest:
//   short-write The frame is written in 1-byte send() calls, exercising
//               peer-side reassembly and the server's partial-write loop.
//   reset       The connection is aborted with a TCP RST (SO_LINGER 0) at
//               the site, exactly as a dying peer or middlebox would.
//   stall       The hitting thread sleeps ~50 ms (handled inside Hit()),
//               simulating a network stall long enough to trip the
//               io-deadline paths when they are configured tight.
//   garbage     A few non-protocol bytes are injected into the stream at
//               the site, exercising the framing-error paths.
//
// Disabled-path cost is a single null-pointer check at each site: engines
// without a spec never construct an injector.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/result.h"

namespace fastqre {

/// \brief The fault-site registry: every site name the program hits. Engine
/// sites are governor charges and fault points; job-admit is the job
/// manager's admission; the wire sites are the server's socket layer.
inline constexpr std::string_view kFaultSites[] = {
    "answer-found",     "block-buffer",  "cgm-discovery",
    "filter-build",     "index-build",   "job-admit",
    "mapping-frontier", "morsel-worker", "parallel-worker",
    "pattern-build",    "walk-cache-build",
    "wire-accept",      "wire-read",     "wire-write",
};

/// \brief What an injection site should simulate on one hit. Multiple rules
/// may target the same site, so the actions are independent flags.
struct FaultActions {
  bool alloc_fail = false;
  bool cancel = false;
  // Wire kinds (sleep-free flags; `stall` and `delay` sleep inside Hit()).
  bool short_write = false;
  bool reset = false;
  bool garbage = false;
};

/// \brief Deterministic fault scheduler. Thread-safe: Hit() may be called
/// concurrently from validation workers and cache builders.
class FaultInjector {
 public:
  /// Parses a fault spec (see file comment). Returns InvalidArgument on a
  /// malformed rule or a site outside kFaultSites; an empty spec yields an
  /// injector with no rules.
  static Result<std::unique_ptr<FaultInjector>> Parse(const std::string& spec);

  /// Records one hit of `site` and returns the actions that fired. A delay
  /// rule sleeps right here before returning.
  FaultActions Hit(const char* site);

  size_t num_rules() const { return rules_.size(); }

 private:
  enum class Kind {
    kAllocFail,
    kCancel,
    kDelay,
    kShortWrite,
    kReset,
    kStall,
    kGarbage
  };
  struct Rule {
    std::string site;
    Kind kind = Kind::kAllocFail;
    uint64_t after = 1;        // fire from this hit (1-based) onward
    uint64_t until = 0;        // last firing hit (inclusive); 0 = open-ended
    RelaxedCounter hits = 0;   // per-rule hit tally (relaxed: monotone count)
  };

  std::vector<Rule> rules_;
};

}  // namespace fastqre
