#include "common/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>

#include "common/strings.h"

namespace fastqre {
namespace {

// Sleep applied by a `delay` rule: long enough to reorder racing workers
// around the rank barrier under TSan, short enough that a matrix of delayed
// runs stays fast.
constexpr std::chrono::microseconds kDelaySleep{500};

// Sleep applied by a `stall` rule: sized like a network hiccup — long enough
// to trip a tight io-deadline in the chaos integration runs, short enough
// that a matrix of stalled runs stays fast.
constexpr std::chrono::milliseconds kStallSleep{50};

bool IsFaultSite(std::string_view site) {
  return std::find(std::begin(kFaultSites), std::end(kFaultSites), site) !=
         std::end(kFaultSites);
}

}  // namespace

Result<std::unique_ptr<FaultInjector>> FaultInjector::Parse(
    const std::string& spec) {
  auto injector = std::make_unique<FaultInjector>();
  for (const std::string& part : SplitString(spec, ',')) {
    if (part.empty()) continue;
    size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("fault rule '" + part +
                                     "' is not of the form site=kind[@n]");
    }
    Rule rule;
    rule.site = part.substr(0, eq);
    if (!IsFaultSite(rule.site)) {
      return Status::InvalidArgument("fault rule '" + part +
                                     "' names unknown site '" + rule.site +
                                     "'");
    }
    std::string kind = part.substr(eq + 1);
    size_t at = kind.find('@');
    if (at != std::string::npos) {
      std::string range = kind.substr(at + 1);
      kind = kind.substr(0, at);
      std::string first = range;
      const size_t dots = range.find("..");
      if (dots != std::string::npos) {
        first = range.substr(0, dots);
        int64_t m = 0;
        if (!ParseInt64(range.substr(dots + 2), &m) || m < 1) {
          return Status::InvalidArgument(
              "fault rule '" + part + "' has a bad window end (want >= 1)");
        }
        rule.until = static_cast<uint64_t>(m);
      }
      int64_t n = 0;
      if (!ParseInt64(first, &n) || n < 1) {
        return Status::InvalidArgument("fault rule '" + part +
                                       "' has a bad hit count (want >= 1)");
      }
      rule.after = static_cast<uint64_t>(n);
      if (rule.until != 0 && rule.until < rule.after) {
        return Status::InvalidArgument(
            "fault rule '" + part + "' has an empty window (m < n)");
      }
    }
    if (kind == "alloc-fail") {
      rule.kind = Kind::kAllocFail;
    } else if (kind == "cancel") {
      rule.kind = Kind::kCancel;
    } else if (kind == "delay") {
      rule.kind = Kind::kDelay;
    } else if (kind == "short-write") {
      rule.kind = Kind::kShortWrite;
    } else if (kind == "reset") {
      rule.kind = Kind::kReset;
    } else if (kind == "stall") {
      rule.kind = Kind::kStall;
    } else if (kind == "garbage") {
      rule.kind = Kind::kGarbage;
    } else {
      return Status::InvalidArgument(
          "fault rule '" + part +
          "' has unknown kind '" + kind +
          "' (want alloc-fail, cancel, delay, short-write, reset, stall or "
          "garbage)");
    }
    injector->rules_.push_back(std::move(rule));
  }
  return injector;
}

FaultActions FaultInjector::Hit(const char* site) {
  FaultActions actions;
  for (Rule& rule : rules_) {
    if (rule.site != site) continue;
    uint64_t hit = ++rule.hits;
    if (hit < rule.after) continue;
    if (rule.until != 0 && hit > rule.until) continue;
    switch (rule.kind) {
      case Kind::kAllocFail:
        actions.alloc_fail = true;
        break;
      case Kind::kCancel:
        actions.cancel = true;
        break;
      case Kind::kDelay:
        std::this_thread::sleep_for(kDelaySleep);
        break;
      case Kind::kShortWrite:
        actions.short_write = true;
        break;
      case Kind::kReset:
        actions.reset = true;
        break;
      case Kind::kStall:
        std::this_thread::sleep_for(kStallSleep);
        break;
      case Kind::kGarbage:
        actions.garbage = true;
        break;
    }
  }
  return actions;
}

}  // namespace fastqre
