#include "engine/block_executor.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "common/hash.h"
#include "common/resource_governor.h"
#include "common/thread_pool.h"
#include "engine/executor.h"

namespace fastqre {

namespace {

// Block-buffer bytes are accumulated locally (per morsel worker) and flushed
// to the governor in quanta, keeping the accounting cost off the per-row hot
// path.
constexpr uint64_t kChargeQuantumBytes = 64 * 1024;

// Hard cap on intermediate materialization: pathological candidate queries
// can otherwise exhaust memory before any time budget fires. Enforced
// exactly at merge time (so the verdict is identical in every execution
// configuration) and approximately inside each worker (so no single morsel
// materializes unboundedly past it).
constexpr size_t kMaxIntermediateRows = 20'000'000;

// Rows the probe kernel expands per LookupBatch call before filtering and
// appending: bounds the reusable match scratch even for keys with huge
// posting lists.
constexpr size_t kBatchExpandRowCap = 64 * 1024;

// Bindings the interface-dedup pass examines before deciding whether the
// collapse pays for itself (see the bail-out in iface_dedup below).
constexpr size_t kDedupSampleRows = 4096;

// Why the shared stop flag fired; first cause wins (CAS). Values double as
// merge-time status codes.
enum : int {
  kRunning = 0,
  kStopInterrupt = 1,
  kStopMemory = 2,
  kStopCap = 3,
};

// Releases every byte this block evaluation charged, on all return paths
// (the intermediates are freed when the function's locals unwind). Workers
// fold their flushed quanta into `charged` with relaxed adds; the final
// load happens after every worker joined, so the total is exact.
struct BlockChargeGuard {
  const std::shared_ptr<ResourceGovernor>& governor;
  std::atomic<uint64_t>& charged;
  ~BlockChargeGuard() {
    uint64_t total = charged.load(std::memory_order_relaxed);
    if (governor != nullptr && total > 0) governor->Release(total);
  }
};

// Same-instance filters (self joins, selections) of one plan step, resolved
// to raw column pointers once so the per-row check is a few loads.
struct LocalFilters {
  std::vector<std::pair<const ValueId*, const ValueId*>> self_eq;
  std::vector<std::pair<const ValueId*, ValueId>> sel_eq;

  // `include_selections` is false on probe steps, whose selections are
  // folded into the index key (see the key-wiring loop below) and therefore
  // already hold for every enumerated match.
  void Build(const Database& db, const PJQuery& query, InstanceId inst,
             bool include_selections) {
    const Table& t = db.table(query.instance_table(inst));
    for (const auto& j : query.joins()) {
      if (j.a == inst && j.b == inst) {
        self_eq.emplace_back(t.column(j.col_a).data().data(),
                             t.column(j.col_b).data().data());
      }
    }
    if (!include_selections) return;
    for (const auto& s : query.selections()) {
      if (s.instance == inst) {
        sel_eq.emplace_back(t.column(s.column).data().data(), s.value);
      }
    }
  }

  bool Passes(RowId r) const {
    for (const auto& [a, b] : self_eq) {
      if (a[r] != b[r]) return false;
    }
    for (const auto& [col, val] : sel_eq) {
      if (col[r] != val) return false;
    }
    return true;
  }
};

// Open-addressing set of fixed-width ValueId tuples over a flat arena: one
// hash-table slot per element and contiguous key storage, so membership
// inserts neither allocate nor copy a vector per tuple (the dedup loops
// below run one insert per intermediate row — a node-based set's per-insert
// malloc dominated their profile). Only membership is ever consulted, so
// the hash function never influences output order.
class FlatTupleSet {
 public:
  FlatTupleSet(size_t width, size_t expected) : width_(width) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, kEmptySlot);
  }

  // Inserts the `width` ids at `key`; returns true iff the tuple is new.
  bool Insert(const ValueId* key) {
    if ((count_ + 1) * 10 >= slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const uint32_t idx = slots_[s];
      if (idx == kEmptySlot) {
        slots_[s] = static_cast<uint32_t>(count_);
        arena_.insert(arena_.end(), key, key + width_);
        ++count_;
        return true;
      }
      if (Equal(idx, key)) return false;
    }
  }

  // Membership without insertion (the streamed final step uses this to skip
  // probes that can only re-produce an already-emitted tuple).
  bool Contains(const ValueId* key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const uint32_t idx = slots_[s];
      if (idx == kEmptySlot) return false;
      if (Equal(idx, key)) return true;
    }
  }

  size_t size() const { return count_; }

 private:
  static constexpr uint32_t kEmptySlot = ~0u;

  uint64_t Hash(const ValueId* key) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < width_; ++i) {
      h ^= key[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }

  bool Equal(uint32_t idx, const ValueId* key) const {
    const ValueId* stored = arena_.data() + static_cast<size_t>(idx) * width_;
    for (size_t i = 0; i < width_; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  void Grow() {
    std::vector<uint32_t> bigger(slots_.size() * 2, kEmptySlot);
    const size_t mask = bigger.size() - 1;
    for (uint32_t idx : slots_) {
      if (idx == kEmptySlot) continue;
      size_t s = Hash(arena_.data() + static_cast<size_t>(idx) * width_) & mask;
      while (bigger[s] != kEmptySlot) s = (s + 1) & mask;
      bigger[s] = idx;
    }
    slots_.swap(bigger);
  }

  size_t width_;
  size_t count_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<ValueId> arena_;
};

// SIP filters of one plan step (DESIGN.md §13): a row is skipped when some
// future join partner's column provably lacks the row's join value. Resolved
// to raw column pointers once per step, like LocalFilters; kept separate so
// skips are counted as SIP's, not a local predicate's.
struct SipFilters {
  std::vector<std::pair<const ValueId*, const BitmapFilter*>> tests;

  bool Passes(RowId r) const {
    for (const auto& [col, filter] : tests) {
      if (!filter->Test(col[r])) return false;
    }
    return true;
  }
};

// One future-join SIP constraint of a plan step: the step instance's
// `local_col` must hit the presence filter of `other_table`.`other_col`.
struct SipDescriptor {
  ColumnId local_col;
  TableId other_table;
  ColumnId other_col;
};

}  // namespace

Result<Table> ExecuteBlock(const Database& db, const PJQuery& query,
                           const std::string& name,
                           std::function<bool()> interrupt,
                           const ExecPolicy& policy,
                           const TupleSet* subset_guard, bool* subset_violated,
                           BlockRunStats* run_stats) {
  const size_t n = query.num_instances();
  if (n == 0) return Status::InvalidArgument("query has no instances");
  if (!query.IsConnected()) {
    return Status::InvalidArgument("query graph is disconnected (cross product)");
  }
  if (query.projections().empty()) {
    return Status::InvalidArgument("query has no projection columns");
  }
  if (subset_guard != nullptr && subset_violated == nullptr) {
    return Status::InvalidArgument("subset_guard requires subset_violated");
  }
  if (subset_violated != nullptr) *subset_violated = false;
  const size_t morsel = policy.MorselSize();

  // Governor accounting for the materialized intermediates (DESIGN.md §11).
  // Cumulative across join steps — a conservative overestimate of the peak —
  // and fully released on exit via the guard below. A refused charge
  // dismisses this candidate only (the validator maps candidate-local
  // ResourceExhausted to kError); it never aborts the whole search.
  // The policy's governor is the engine driving this candidate; the
  // database attachment is only a fallback for standalone executor use —
  // it is last-attach-wins across engines, so charging it here would let a
  // concurrent engine's exhausted ladder dismiss THIS engine's candidates.
  const std::shared_ptr<ResourceGovernor> governor =
      policy.governor != nullptr ? policy.governor : db.governor();
  std::atomic<uint64_t> charged_bytes{0};
  BlockChargeGuard charge_guard{governor, charged_bytes};

  // Shared stop flag: set by whichever morsel first observes an interrupt, a
  // refused charge, or the intermediate cap; later morsels exit immediately.
  // Relaxed suffices — the flag guards no data (per-morsel buffers are
  // published by the RunMorsels join) and the first-cause CAS is exact.
  std::atomic<int> stop{kRunning};
  auto raise_stop = [&stop](int cause) {
    int expected = kRunning;
    (void)stop.compare_exchange_strong(expected, cause,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed);
  };
  auto stop_status = [&stop]() {
    switch (stop.load(std::memory_order_relaxed)) {
      case kStopMemory:
        return Status::ResourceExhausted(
            "block evaluation exceeded the memory budget");
      case kStopCap:
        return Status::ResourceExhausted(
            "block evaluation exceeded the intermediate-size cap");
      default:
        return Status::ResourceExhausted("block evaluation interrupted");
    }
  };
  // Approximate running total of appended intermediate rows, for the
  // in-worker cap guard; the exact (configuration-independent) cap verdict
  // is re-checked on the merged total after each step.
  std::atomic<size_t> produced{0};
  // SIP skips across all steps and workers (observability only).
  std::atomic<uint64_t> sip_skipped{0};

  // Left-deep join order: start anywhere, repeatedly attach an instance
  // adjacent to the placed set (any order is correct; smallest-table-first
  // keeps intermediates modest without changing the block semantics).
  std::vector<std::vector<size_t>> adj(n);
  for (size_t ji = 0; ji < query.joins().size(); ++ji) {
    const auto& j = query.joins()[ji];
    if (j.a == j.b) continue;
    adj[j.a].push_back(ji);
    adj[j.b].push_back(ji);
  }
  std::vector<int> pos(n, -1);
  std::vector<InstanceId> order{0};
  pos[0] = 0;
  while (order.size() < n) {
    InstanceId best = static_cast<InstanceId>(n);
    size_t best_rows = 0;
    for (InstanceId v = 0; v < n; ++v) {
      if (pos[v] >= 0) continue;
      bool frontier = false;
      for (size_t ji : adj[v]) {
        const auto& j = query.joins()[ji];
        InstanceId other = (j.a == v) ? j.b : j.a;
        if (pos[other] >= 0) frontier = true;
      }
      if (!frontier) continue;
      size_t rows = db.table(query.instance_table(v)).num_rows();
      if (best == n || rows < best_rows) {
        best = v;
        best_rows = rows;
      }
    }
    if (best == n) return Status::Internal("connected query not traversable");
    pos[best] = static_cast<int>(order.size());
    order.push_back(best);
  }

  // SIP descriptors per plan position: joins from the placed instance to a
  // *later*-placed one, i.e. filters the placed side can apply before the
  // partner's step exists (DESIGN.md §13, skip-only-provably-absent).
  std::vector<std::vector<SipDescriptor>> sip_descs(n);
  if (policy.use_sip) {
    for (const auto& j : query.joins()) {
      if (j.a == j.b) continue;
      const int pa = pos[j.a], pb = pos[j.b];
      const int earlier = std::min(pa, pb);
      const bool a_is_earlier = (pa == earlier);
      sip_descs[earlier].push_back(SipDescriptor{
          a_is_earlier ? j.col_a : j.col_b,
          query.instance_table(a_is_earlier ? j.b : j.a),
          a_is_earlier ? j.col_b : j.col_a});
    }
  }
  // Resolves step p's SIP tests; every step gets them (none when SIP is
  // off). Their order is immaterial: a row must pass them all.
  auto resolve_sip = [&](size_t p) {
    SipFilters filters;
    const Table& t = db.table(query.instance_table(order[p]));
    for (const SipDescriptor& d : sip_descs[p]) {
      filters.tests.emplace_back(
          t.column(d.local_col).data().data(),
          &db.GetOrBuildPresenceFilter(d.other_table, d.other_col));
    }
    return filters;
  };

  // Step key wiring: key_cols[p] are the probe columns of step p's index,
  // key_sources[p] the (plan position, column) each key component reads.
  std::vector<std::vector<ColumnId>> key_cols(n);
  std::vector<std::vector<std::pair<int, ColumnId>>> key_sources(n);
  for (size_t p = 1; p < n; ++p) {
    const InstanceId inst = order[p];
    for (const auto& j : query.joins()) {
      if (j.a == j.b) continue;
      InstanceId other;
      ColumnId local_col, other_col;
      if (j.a == inst && pos[j.b] >= 0 && pos[j.b] < static_cast<int>(p)) {
        other = j.b;
        local_col = j.col_a;
        other_col = j.col_b;
      } else if (j.b == inst && pos[j.a] >= 0 &&
                 pos[j.a] < static_cast<int>(p)) {
        other = j.a;
        local_col = j.col_b;
        other_col = j.col_a;
      } else {
        continue;
      }
      key_cols[p].push_back(local_col);
      key_sources[p].emplace_back(pos[other], other_col);
    }
    if (key_cols[p].empty()) {
      return Status::Internal("frontier step without keys");
    }
    // Selection folding (mirrors the pipelined cursor): a probe step's
    // constant predicates become extra key components, so the index rejects
    // non-qualifying rows before they are enumerated instead of after. A
    // folded component's source slot is -1 and its `column` field carries
    // the constant ValueId. Order-preserving: the extended index's posting
    // list for (join key, constants) is exactly the plain lookup's posting
    // list with non-qualifying rows removed, in the same row order.
    for (const auto& s : query.selections()) {
      if (s.instance == inst) {
        key_cols[p].push_back(s.column);
        key_sources[p].emplace_back(-1, static_cast<ColumnId>(s.value));
      }
    }
  }

  // Exact extras check (subset_guard): the final join step streams instead of
  // materializing — each (prefix binding × index match) is projected, deduped
  // and guard-checked on the fly, so a violating candidate is dismissed at
  // its first extra tuple instead of after enumerating its full join. The
  // surviving-table contract is unchanged: the stream visits (driving row,
  // index match) pairs in exactly the order the materialize-then-project path
  // would, so a non-violating run returns a byte-identical table.
  const bool stream_last = subset_guard != nullptr && n >= 2;
  const size_t last_materialized = stream_last ? n - 1 : n;

  // Interface-column dedup (guard path only): a prefix binding influences the
  // rest of the run solely through its interface values — the columns later
  // steps' join keys read plus the prefix's projection columns. Bindings
  // equal on those produce identical projected-tuple sequences downstream, so
  // keeping only the first of each class preserves the distinct-tuple set AND
  // its first-occurrence order (a dropped binding's tuples were already
  // emitted, in order, by its earlier representative). This collapses
  // chain-join intermediates from row-pair counts to distinct-value counts —
  // the multiplicative shrink the extras check lives on. iface[p] is the
  // interface spec after step p, in (plan position, column) pairs.
  std::vector<std::vector<std::pair<int, ColumnId>>> iface;
  if (stream_last) {
    iface.resize(n);
    for (size_t p = 0; p + 1 < n; ++p) {
      auto& spec = iface[p];
      for (size_t q = p + 1; q < n; ++q) {
        for (const auto& [sp, sc] : key_sources[q]) {
          // sp < 0 is a folded selection constant, not a prefix column.
          if (sp >= 0 && sp <= static_cast<int>(p)) spec.emplace_back(sp, sc);
        }
      }
      for (const auto& proj : query.projections()) {
        if (pos[proj.instance] <= static_cast<int>(p)) {
          spec.emplace_back(pos[proj.instance], proj.column);
        }
      }
      // det: order-insensitive — sorted only so duplicates collapse; the
      // spec is a set and its order never reaches the output.
      std::sort(spec.begin(), spec.end());
      spec.erase(std::unique(spec.begin(), spec.end()), spec.end());
    }
  }

  // Intermediate relation: a flat row-major matrix, one RowId per placed
  // instance per row. Flat (instead of a vector per row) so morsel workers
  // scan their driving slice cache-linearly and the merge is a memcpy.
  // gov: charged — every appended row's bytes flow through the per-morsel
  // quantum flushes below (released by charge_guard).
  std::vector<RowId> rows;
  size_t width = 1;

  // Collapses rows (the intermediate after step p) to the first
  // binding of each interface-value class. Serial over the merged buffer, so
  // the kept set is identical at any thread count / morsel size.
  auto iface_dedup = [&](size_t p) {
    if (!stream_last || p + 1 >= n) return;
    const auto& spec = iface[p];
    const size_t w = p + 1;
    const size_t count = rows.size() / w;
    std::vector<const ValueId*> icol(spec.size());
    std::vector<int> ipos(spec.size());
    for (size_t j = 0; j < spec.size(); ++j) {
      ipos[j] = spec[j].first;
      icol[j] = db.table(query.instance_table(order[spec[j].first]))
                    .column(spec[j].second)
                    .data()
                    .data();
    }
    // gov: bounded — interface keys of an already-charged intermediate,
    // freed at scope exit; `kept` never outgrows the buffer it replaces.
    FlatTupleSet classes(spec.size(), count);
    std::vector<RowId> kept;
    std::vector<ValueId> ikey(spec.size());
    for (size_t i = 0; i < count; ++i) {
      // Adaptive bail-out: when the first sample of bindings is mostly
      // distinct classes, the pass cannot shrink the intermediate enough to
      // pay for itself — keep the buffer as is (duplicates are harmless:
      // downstream steps and the final dedup set absorb them). The decision
      // depends only on the data and the interface spec, so it is identical
      // at any thread count / morsel size.
      if (i == kDedupSampleRows && kept.size() / w > kDedupSampleRows / 2) {
        return;
      }
      const RowId* binding = rows.data() + i * w;
      for (size_t j = 0; j < spec.size(); ++j) {
        ikey[j] = icol[j][binding[ipos[j]]];
      }
      if (classes.Insert(ikey.data())) {
        kept.insert(kept.end(), binding, binding + w);
      }
    }
    rows.swap(kept);
  };

  // Step 0: filter the start table's rows, one morsel-sized chunk at a time
  // (per-chunk interrupt polls; the scan itself is cheap).
  {
    const Table& t0 = db.table(query.instance_table(order[0]));
    LocalFilters filters;
    filters.Build(db, query, order[0], /*include_selections=*/true);
    const SipFilters sip = resolve_sip(0);
    const size_t t0_rows = t0.num_rows();
    uint64_t pending = 0;
    uint64_t skips = 0;
    for (size_t lo = 0; lo < t0_rows; lo += morsel) {
      if (interrupt && interrupt()) return stop_status();
      const size_t hi = std::min(t0_rows, lo + morsel);
      for (RowId r = static_cast<RowId>(lo); r < hi; ++r) {
        if (!filters.Passes(r)) continue;
        if (!sip.Passes(r)) {
          ++skips;
          continue;
        }
        rows.push_back(r);
        pending += sizeof(RowId);
      }
      if (governor != nullptr && pending >= kChargeQuantumBytes) {
        if (!governor->TryCharge(pending, "block-buffer")) {
          return Status::ResourceExhausted(
              "block evaluation exceeded the memory budget");
        }
        charged_bytes.fetch_add(pending, std::memory_order_relaxed);
        pending = 0;
      }
    }
    if (governor != nullptr && pending > 0) {
      if (!governor->TryCharge(pending, "block-buffer")) {
        return Status::ResourceExhausted(
            "block evaluation exceeded the memory budget");
      }
      charged_bytes.fetch_add(pending, std::memory_order_relaxed);
    }
    sip_skipped.fetch_add(skips, std::memory_order_relaxed);
    iface_dedup(0);
  }

  for (size_t p = 1; p < last_materialized; ++p) {
    InstanceId inst = order[p];
    // Build side of the hash join: interruptible, so a deadline or Cancel()
    // lands inside a large index build instead of after it (DESIGN.md §13).
    const HashIndex* index_ptr = db.TryGetOrBuildIndex(
        query.instance_table(inst), key_cols[p], interrupt);
    if (index_ptr == nullptr) return stop_status();
    const HashIndex& index = *index_ptr;
    LocalFilters filters;
    filters.Build(db, query, inst, /*include_selections=*/false);
    const SipFilters sip = resolve_sip(p);
    // Key-source columns resolved to raw pointers once per step.
    const size_t kw = key_sources[p].size();
    std::vector<int> src_pos(kw);
    std::vector<const ValueId*> src_data(kw);
    std::vector<ValueId> src_const(kw, 0);
    for (size_t k = 0; k < kw; ++k) {
      src_pos[k] = key_sources[p][k].first;
      if (src_pos[k] < 0) {
        // Folded selection: a constant key component, no source column.
        src_data[k] = nullptr;
        src_const[k] = static_cast<ValueId>(key_sources[p][k].second);
        continue;
      }
      src_data[k] =
          db.table(query.instance_table(order[key_sources[p][k].first]))
              .column(key_sources[p][k].second)
              .data()
              .data();
    }

    const std::vector<RowId>& drv = rows;
    const size_t w = width;
    const size_t count = drv.size() / w;
    const size_t num_morsels = (count + morsel - 1) / morsel;
    // Per-morsel result buffers, merged in morsel-index order below — the
    // determinism backbone of DESIGN.md §12.
    // gov: charged — each worker flushes its buffer's bytes in 64 KB quanta
    // ("block-buffer"); released in full by charge_guard.
    std::vector<std::vector<RowId>> morsel_out(num_morsels);

    // One morsel: probe driving rows [m*morsel, ...) against the step index
    // and append passing (binding, match) rows to this morsel's own buffer.
    auto run_morsel = [&](size_t m) {
      if (stop.load(std::memory_order_relaxed) != kRunning) return;
      // Fault site "morsel-worker": fires once per morsel. An injected
      // alloc-fail models this worker's first refused quantum; cancel lands
      // at the interrupt poll just below (DESIGN.md §11).
      if (governor != nullptr &&
          governor->FaultPointAllocFails("morsel-worker")) {
        raise_stop(kStopMemory);
        return;
      }
      // Per-morsel interrupt poll: a deadline or Cancel() is honored within
      // one morsel of work, and never mid-merge.
      if (interrupt && interrupt()) {
        raise_stop(kStopInterrupt);
        return;
      }
      const size_t lo = m * morsel;
      const size_t hi = std::min(count, lo + morsel);
      std::vector<RowId>& out = morsel_out[m];
      uint64_t pending = 0;
      uint64_t skips = 0;
      auto flush = [&]() {
        if (governor == nullptr || pending == 0) return true;
        if (!governor->TryCharge(pending, "block-buffer")) return false;
        charged_bytes.fetch_add(pending, std::memory_order_relaxed);
        pending = 0;
        return true;
      };

      // Gather the morsel's keys columnarly, probe them through one
      // LookupBatch, then filter each key's match extent with raw-pointer
      // column compares, visiting driving rows in order and each key's
      // matches in index row order.
      std::vector<ValueId> keys((hi - lo) * kw);
      for (size_t k = 0; k < kw; ++k) {
        const ValueId* col = src_data[k];
        const int sp = src_pos[k];
        if (sp < 0) {
          for (size_t i = lo; i < hi; ++i) {
            keys[(i - lo) * kw + k] = src_const[k];
          }
          continue;
        }
        for (size_t i = lo; i < hi; ++i) {
          keys[(i - lo) * kw + k] = col[drv[i * w + sp]];
        }
      }
      BatchMatches matches;
      size_t done = 0;
      const size_t nk = hi - lo;
      while (done < nk) {
        const size_t consumed = index.LookupBatch(
            keys.data() + done * kw, nk - done, &matches, kBatchExpandRowCap);
        const size_t before =
            produced.fetch_add(matches.rows.size(), std::memory_order_relaxed);
        if (before + matches.rows.size() > kMaxIntermediateRows) {
          raise_stop(kStopCap);
          return;
        }
        for (size_t i = 0; i < consumed; ++i) {
          const RowId* binding = drv.data() + (lo + done + i) * w;
          const RowId* mb = matches.begin_of(i);
          const RowId* me = matches.end_of(i);
          for (const RowId* r = mb; r < me; ++r) {
            if (!filters.Passes(*r)) continue;
            if (!sip.Passes(*r)) {
              ++skips;
              continue;
            }
            out.insert(out.end(), binding, binding + w);
            out.push_back(*r);
            pending += (w + 1) * sizeof(RowId);
          }
          if (pending >= kChargeQuantumBytes && !flush()) {
            raise_stop(kStopMemory);
            return;
          }
        }
        done += consumed;
      }
      if (skips > 0) sip_skipped.fetch_add(skips, std::memory_order_relaxed);
      if (!flush()) raise_stop(kStopMemory);
    };

    RunMorsels(policy.WantsParallel(count) ? policy.pool : nullptr,
               policy.intra_threads - 1, num_morsels, run_morsel);
    if (stop.load(std::memory_order_relaxed) != kRunning) {
      return stop_status();
    }

    // Merge in morsel-index order: the concatenation equals the serial
    // traversal order, so the step output is byte-identical at any thread
    // count.
    size_t total = 0;
    for (const auto& buf : morsel_out) total += buf.size();
    if (total / (w + 1) > kMaxIntermediateRows) {
      return Status::ResourceExhausted(
          "block evaluation exceeded the intermediate-size cap");
    }
    if (num_morsels == 1) {
      rows = std::move(morsel_out[0]);
    } else {
      // gov: charged — replaced buffer; its bytes were charged above and the
      // cumulative total is released by charge_guard at exit.
      std::vector<RowId> merged;
      merged.reserve(total);
      for (auto& buf : morsel_out) {
        merged.insert(merged.end(), buf.begin(), buf.end());
      }
      rows = std::move(merged);
    }
    width = w + 1;
    iface_dedup(p);
  }

  // Project and dedupe: serial (first-occurrence order defines the output
  // table byte-for-byte), chunked per morsel for the interrupt poll.
  Table out(name, db.dictionary());
  std::unordered_set<std::string> used_names;
  std::vector<const ValueId*> proj_data(query.projections().size());
  std::vector<int> proj_pos(query.projections().size());
  for (size_t i = 0; i < query.projections().size(); ++i) {
    const auto& proj = query.projections()[i];
    const Column& src =
        db.table(query.instance_table(proj.instance)).column(proj.column);
    std::string col_name = src.name();
    while (used_names.count(col_name) > 0) col_name += "_";
    used_names.insert(col_name);
    FASTQRE_RETURN_NOT_OK(out.AddColumn(col_name, src.type()));
    proj_data[i] = src.data().data();
    proj_pos[i] = pos[proj.instance];
  }
  const size_t out_count = width == 0 ? 0 : rows.size() / width;
  // gov: charged — dedup-set bytes accumulate in `pending` below. On the
  // guard path the distinct-tuple set is bounded by the guard itself (the
  // first tuple past it ends the run), so size for that instead of the
  // worst-case row count.
  FlatTupleSet seen(query.projections().size(),
                    subset_guard != nullptr ? subset_guard->size() + 1
                                            : out_count);
  std::vector<ValueId> tuple(query.projections().size());
  uint64_t pending = 0;
  auto finish_stats = [&]() {
    if (run_stats == nullptr) return;
    run_stats->rows_enumerated = produced.load(std::memory_order_relaxed);
    run_stats->sip_rows_skipped = sip_skipped.load(std::memory_order_relaxed);
  };
  auto flush_pending = [&]() {
    if (governor == nullptr || pending == 0) return true;
    if (!governor->TryCharge(pending, "block-buffer")) return false;
    charged_bytes.fetch_add(pending, std::memory_order_relaxed);
    pending = 0;
    return true;
  };

  if (stream_last) {
    // Streamed final step (exact extras check): probe the last index one
    // prefix binding at a time and project/dedupe/guard-check each match
    // immediately. Serial — the early exit IS the optimization, and the
    // materialized prefix steps already absorbed the parallel work.
    const size_t p = n - 1;
    const HashIndex* index_ptr = db.TryGetOrBuildIndex(
        query.instance_table(order[p]), key_cols[p], interrupt);
    if (index_ptr == nullptr) return stop_status();
    const HashIndex& index = *index_ptr;
    LocalFilters filters;
    filters.Build(db, query, order[p], /*include_selections=*/false);
    const SipFilters sip = resolve_sip(p);
    const size_t kw = key_sources[p].size();
    std::vector<int> src_pos(kw);
    std::vector<const ValueId*> src_data(kw);
    std::vector<ValueId> src_const(kw, 0);
    for (size_t k = 0; k < kw; ++k) {
      src_pos[k] = key_sources[p][k].first;
      if (src_pos[k] < 0) {
        // Folded selection: a constant key component, no source column.
        src_data[k] = nullptr;
        src_const[k] = static_cast<ValueId>(key_sources[p][k].second);
        continue;
      }
      src_data[k] =
          db.table(query.instance_table(order[key_sources[p][k].first]))
              .column(key_sources[p][k].second)
              .data()
              .data();
    }
    // Composite-key SIP (kw >= 2 only; single keys go through Lookup1's flat
    // map, which a bit test cannot beat): most prefix bindings of a convoy
    // candidate have no partner in the final table — on foreign-key data
    // every component value exists, but the combination does not — so a
    // cache-resident bit test rejects the miss before the hash-map probe.
    // Output-neutral by construction: only provably-empty probes are
    // skipped, and an empty probe contributes nothing to `produced` either.
    const CompositeKeyFilter* key_filter =
        policy.use_sip && kw >= 2
            ? &db.GetOrBuildKeyFilter(query.instance_table(order[p]),
                                      key_cols[p])
            : nullptr;
    const int final_pos = static_cast<int>(p);
    const size_t count = width == 0 ? 0 : rows.size() / width;
    // When no projection reads the probed instance, every match of one
    // binding projects to the same tuple: the probe is an existence test.
    // Then (a) a binding whose tuple was already emitted is skipped without
    // probing — its matches cannot produce anything new — and (b) the match
    // loop ends at the first passing match. The emitted sequence is
    // unchanged: skipped bindings only re-produce duplicates, which the
    // dedup set would have swallowed anyway.
    bool final_has_proj = false;
    for (int sp : proj_pos) {
      if (sp == final_pos) final_has_proj = true;
    }
    std::vector<ValueId> key(kw);
    uint64_t skips = 0;
    for (size_t lo = 0; lo < count; lo += morsel) {
      if (interrupt && interrupt()) {
        return Status::ResourceExhausted("block evaluation interrupted");
      }
      const size_t hi = std::min(count, lo + morsel);
      for (size_t di = lo; di < hi; ++di) {
        const RowId* binding = rows.data() + di * width;
        if (!final_has_proj) {
          for (size_t i = 0; i < tuple.size(); ++i) {
            tuple[i] = proj_data[i][binding[proj_pos[i]]];
          }
          if (seen.Contains(tuple.data())) continue;  // existence already known
        }
        for (size_t k = 0; k < kw; ++k) {
          key[k] =
              src_pos[k] < 0 ? src_const[k] : src_data[k][binding[src_pos[k]]];
        }
        if (key_filter != nullptr && !key_filter->MayContain(key.data(), kw)) {
          ++skips;
          continue;
        }
        const std::vector<RowId>& match_rows =
            kw == 1 ? index.Lookup1(key[0]) : index.Lookup(key);
        const size_t before =
            produced.fetch_add(match_rows.size(), std::memory_order_relaxed);
        if (before + match_rows.size() > kMaxIntermediateRows) {
          return Status::ResourceExhausted(
              "block evaluation exceeded the intermediate-size cap");
        }
        for (RowId match : match_rows) {
          if (!filters.Passes(match)) continue;
          if (!sip.Passes(match)) {
            ++skips;
            continue;
          }
          if (final_has_proj) {
            for (size_t i = 0; i < tuple.size(); ++i) {
              const int sp = proj_pos[i];
              tuple[i] = proj_data[i][sp == final_pos ? match : binding[sp]];
            }
          }
          if (seen.Insert(tuple.data())) {
            if (subset_guard->count(tuple) == 0) {
              *subset_violated = true;
              sip_skipped.fetch_add(skips, std::memory_order_relaxed);
              finish_stats();
              return out;
            }
            out.AppendRowIds(tuple);
            pending += 2 * tuple.size() * sizeof(ValueId) + 48;
          }
          if (!final_has_proj) break;  // one passing match proves existence
        }
      }
      if (pending >= kChargeQuantumBytes && !flush_pending()) {
        return Status::ResourceExhausted(
            "block evaluation exceeded the memory budget");
      }
    }
    if (!flush_pending()) {
      return Status::ResourceExhausted(
          "block evaluation exceeded the memory budget");
    }
    sip_skipped.fetch_add(skips, std::memory_order_relaxed);
    finish_stats();
    return out;
  }

  for (size_t lo = 0; lo < out_count; lo += morsel) {
    if (interrupt && interrupt()) {
      return Status::ResourceExhausted("block evaluation interrupted");
    }
    const size_t hi = std::min(out_count, lo + morsel);
    for (size_t bi = lo; bi < hi; ++bi) {
      const RowId* binding = rows.data() + bi * width;
      for (size_t i = 0; i < tuple.size(); ++i) {
        tuple[i] = proj_data[i][binding[proj_pos[i]]];
      }
      if (seen.Insert(tuple.data())) {
        if (subset_guard != nullptr && subset_guard->count(tuple) == 0) {
          // Exact extras check: the candidate provably produces a tuple
          // outside the guard set; no need to finish the projection.
          *subset_violated = true;
          finish_stats();
          return out;
        }
        out.AppendRowIds(tuple);
        // Node + stored tuple + output-row estimate.
        pending += 2 * tuple.size() * sizeof(ValueId) + 48;
      }
    }
    if (governor != nullptr && pending >= kChargeQuantumBytes) {
      if (!governor->TryCharge(pending, "block-buffer")) {
        return Status::ResourceExhausted(
            "block evaluation exceeded the memory budget");
      }
      charged_bytes.fetch_add(pending, std::memory_order_relaxed);
      pending = 0;
    }
  }
  if (governor != nullptr && pending > 0) {
    if (!governor->TryCharge(pending, "block-buffer")) {
      return Status::ResourceExhausted(
          "block evaluation exceeded the memory budget");
    }
    charged_bytes.fetch_add(pending, std::memory_order_relaxed);
  }
  finish_stats();
  return out;
}

}  // namespace fastqre
