// Retired: the cross-candidate subplan memo is gone, and the block executor
// always recomputes its join prefixes (DESIGN.md §13).
//
// This type stores nothing and reports 0. It stays only because the repo
// benchmark (perfbench/replay.cc) still constructs it, shrinks it and reads
// its counters; delete it together with that use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace fastqre {

class ResourceGovernor;

class SubplanCache {
 public:
  SubplanCache(size_t budget_bytes, int /*admission*/,
               std::shared_ptr<ResourceGovernor> /*governor*/ = nullptr)
      : budget_bytes_(budget_bytes) {}

  void ShrinkTo(size_t /*target_bytes*/) {}
  size_t budget_bytes() const { return budget_bytes_; }
  uint64_t hits() const { return 0; }
  uint64_t misses() const { return 0; }
  uint64_t evictions() const { return 0; }
  size_t bytes() const { return 0; }

 private:
  const size_t budget_bytes_;
};

}  // namespace fastqre
