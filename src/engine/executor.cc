#include "engine/executor.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "common/strings.h"

namespace fastqre {

Result<std::unique_ptr<QueryCursor>> QueryCursor::Create(
    const Database& db, const PJQuery& query, std::function<bool()> interrupt,
    const std::vector<VirtualJoin>& virtual_joins, const ExecPolicy& policy) {
  if (query.num_instances() == 0) {
    return Status::InvalidArgument("query has no instances");
  }
  const size_t n = query.num_instances();

  // Connectivity and frontier planning treat virtual joins exactly like
  // physical ones: a query whose walk chains were all substituted away can
  // be disconnected on joins() alone yet connected through the cache.
  struct PlanEdge {
    InstanceId a, b;
  };
  std::vector<PlanEdge> plan_edges;
  for (const auto& j : query.joins()) {
    if (j.a != j.b) plan_edges.push_back(PlanEdge{j.a, j.b});
  }
  for (const auto& vj : virtual_joins) {
    if (vj.a == vj.b) {
      return Status::InvalidArgument("virtual join endpoints coincide");
    }
    if (vj.a >= n || vj.b >= n) {
      return Status::InvalidArgument("virtual join references unknown instance");
    }
    plan_edges.push_back(PlanEdge{vj.a, vj.b});
  }
  {
    std::vector<std::vector<InstanceId>> nbr(n);
    for (const PlanEdge& e : plan_edges) {
      nbr[e.a].push_back(e.b);
      nbr[e.b].push_back(e.a);
    }
    std::vector<bool> seen(n, false);
    std::vector<InstanceId> stack{0};
    seen[0] = true;
    size_t reached = 1;
    while (!stack.empty()) {
      InstanceId v = stack.back();
      stack.pop_back();
      for (InstanceId w : nbr[v]) {
        if (!seen[w]) {
          seen[w] = true;
          ++reached;
          stack.push_back(w);
        }
      }
    }
    if (reached != n) {
      return Status::InvalidArgument(
          "query graph is disconnected (cross product)");
    }
  }

  auto cursor = std::make_unique<QueryCursor>(PrivateTag{});
  cursor->db_ = &db;
  cursor->policy_ = policy;
  cursor->interrupt_ = std::move(interrupt);

  // Pick the start instance: prefer one carrying selections so probing
  // queries start from an index point-lookup instead of a scan.
  InstanceId start = 0;
  {
    std::vector<int> sel_count(n, 0);
    for (const auto& s : query.selections()) sel_count[s.instance]++;
    int best = 0;
    for (InstanceId i = 0; i < n; ++i) {
      if (sel_count[i] > best) {
        best = sel_count[i];
        start = i;
      }
    }
  }

  // Greedy selective-first plan order: repeatedly place the frontier
  // instance with (a) the most selections, (b) the most join edges into the
  // already-placed set, (c) the smallest table. This keeps the partial-join
  // frontier small — crucial for probing queries, where every projection
  // instance carries selections but naive BFS would wander through
  // high-fanout intermediates first.
  std::vector<std::vector<size_t>> adj(n);  // instance -> plan_edges indexes
  for (size_t ei = 0; ei < plan_edges.size(); ++ei) {
    adj[plan_edges[ei].a].push_back(ei);
    adj[plan_edges[ei].b].push_back(ei);
  }
  std::vector<int> sel_count(n, 0);
  for (const auto& s : query.selections()) sel_count[s.instance]++;
  std::vector<int> pos(n, -1);
  std::vector<InstanceId> order;
  order.reserve(n);
  order.push_back(start);
  pos[start] = 0;
  while (order.size() < n) {
    InstanceId best = n;  // sentinel
    int best_sel = -1, best_joins = -1;
    size_t best_rows = 0;
    for (InstanceId v = 0; v < n; ++v) {
      if (pos[v] >= 0) continue;
      int joins_in = 0;
      for (size_t ei : adj[v]) {
        const PlanEdge& e = plan_edges[ei];
        InstanceId other = (e.a == v) ? e.b : e.a;
        if (pos[other] >= 0) ++joins_in;
      }
      if (joins_in == 0) continue;  // not on the frontier yet
      size_t rows = db.table(query.instance_table(v)).num_rows();
      bool better = false;
      if (sel_count[v] != best_sel) better = sel_count[v] > best_sel;
      else if (joins_in != best_joins) better = joins_in > best_joins;
      else better = rows < best_rows;
      if (best == n || better) {
        best = v;
        best_sel = sel_count[v];
        best_joins = joins_in;
        best_rows = rows;
      }
    }
    if (best == n) {
      return Status::Internal(
          "plan order did not reach all instances of a connected query");
    }
    pos[best] = static_cast<int>(order.size());
    order.push_back(best);
  }

  cursor->steps_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    Step& step = cursor->steps_[p];
    step.instance = order[p];
    step.table = &db.table(query.instance_table(order[p]));
  }

  // Assign joins: same-instance joins become self filters; cross-instance
  // joins key the hash index at the later endpoint's plan position.
  std::vector<std::vector<ColumnId>> key_cols(n);
  for (const auto& j : query.joins()) {
    if (j.a == j.b) {
      cursor->steps_[pos[j.a]].self_filters.emplace_back(j.col_a, j.col_b);
      continue;
    }
    int pa = pos[j.a], pb = pos[j.b];
    int later = std::max(pa, pb);
    bool a_is_later = (pa == later);
    ColumnId local_col = a_is_later ? j.col_a : j.col_b;
    int from_pos = a_is_later ? pb : pa;
    ColumnId from_col = a_is_later ? j.col_b : j.col_a;
    key_cols[later].push_back(local_col);
    cursor->steps_[later].key_sources.push_back(
        KeySource{from_pos, from_col, kNullValueId});
    if (policy.use_sip) {
      // Sideways information passing: at the earlier endpoint, skip rows
      // whose join value never occurs in the later table's join column —
      // they cannot complete to a full binding, so no deeper step need be
      // attempted for them (DESIGN.md §13).
      cursor->steps_[from_pos].sip_filters.emplace_back(
          from_col, &db.GetOrBuildPresenceFilter(
                        query.instance_table(a_is_later ? j.a : j.b),
                        local_col));
    }
  }

  // Virtual joins attach to whichever endpoint is planned later, oriented so
  // the reach map is read from the already-bound side. They start life as
  // row filters; a keyless step below promotes one to its candidate driver.
  for (const auto& vj : virtual_joins) {
    int pa = pos[vj.a], pb = pos[vj.b];
    int later = std::max(pa, pb);
    bool a_is_later = (pa == later);
    ReachSpec spec;
    spec.from_pos = a_is_later ? pb : pa;
    spec.from_col = a_is_later ? vj.col_b : vj.col_a;
    spec.local_col = a_is_later ? vj.col_a : vj.col_b;
    spec.map = a_is_later ? vj.b_to_a : vj.a_to_b;
    cursor->steps_[later].reach_filters.push_back(spec);
    // SIP for walk substitutions: the earlier endpoint tests its join value
    // against the bound-side key domain of the reach relation — a value with
    // no reachable partner fails every later containment check anyway.
    const BitmapFilter* domain = a_is_later ? vj.b_domain : vj.a_domain;
    if (policy.use_sip && domain != nullptr) {
      cursor->steps_[spec.from_pos].sip_filters.emplace_back(spec.from_col,
                                                             domain);
    }
  }

  // Selections become index-key components (constants), so lookups return
  // only rows already satisfying them. Each constant's slot is recorded so
  // Rebind() can swap in a new probe tuple without replanning.
  std::vector<ColumnId> start_sel_cols;
  for (const auto& s : query.selections()) {
    int p = pos[s.instance];
    if (p == 0) {
      start_sel_cols.push_back(s.column);
    } else {
      key_cols[p].push_back(s.column);
    }
    cursor->sel_slots_.emplace_back(static_cast<size_t>(p),
                                    cursor->steps_[p].key_sources.size());
    cursor->steps_[p].key_sources.push_back(KeySource{-1, 0, s.value});
  }

  // Build/fetch indexes.
  if (!start_sel_cols.empty()) {
    cursor->steps_[0].index =
        &db.GetOrBuildIndex(query.instance_table(order[0]), start_sel_cols);
  }
  for (size_t p = 1; p < n; ++p) {
    Step& step = cursor->steps_[p];
    if (key_cols[p].empty()) {
      if (step.reach_filters.empty()) {
        return Status::Internal(
            "plan step without incoming join key in a connected query");
      }
      // Promote one virtual join to candidate driver: enumerate the values
      // reachable from the bound side and probe a single-column index for
      // each, instead of scanning the table.
      step.reach_driver = step.reach_filters.front();
      step.reach_filters.erase(step.reach_filters.begin());
      step.reach_index = &db.GetOrBuildIndex(
          query.instance_table(order[p]), {step.reach_driver->local_col});
      continue;
    }
    step.index =
        &db.GetOrBuildIndex(query.instance_table(order[p]), key_cols[p]);
  }

  cursor->projections_ = query.projections();
  for (const auto& proj : cursor->projections_) {
    cursor->proj_slots_.emplace_back(static_cast<size_t>(pos[proj.instance]),
                                     proj.column);
  }

  cursor->candidates_.resize(n, nullptr);
  cursor->owned_candidates_.resize(n);
  cursor->cursor_.resize(n, 0);
  cursor->bound_.resize(n, 0);
  cursor->key_buf_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    cursor->key_buf_[p].resize(cursor->steps_[p].key_sources.size());
  }
  return cursor;
}

bool QueryCursor::RowPasses(const Step& step, RowId row) const {
  for (const auto& [ca, cb] : step.self_filters) {
    if (step.table->column(ca).at(row) != step.table->column(cb).at(row)) {
      return false;
    }
  }
  for (const auto& [col, val] : step.const_filters) {
    if (step.table->column(col).at(row) != val) return false;
  }
  for (const auto& [col, filter] : step.sip_filters) {
    if (!filter->Test(step.table->column(col).at(row))) {
      ++sip_skipped_;
      return false;
    }
  }
  for (const ReachSpec& rf : step.reach_filters) {
    ValueId u =
        steps_[rf.from_pos].table->column(rf.from_col).at(bound_[rf.from_pos]);
    auto it = rf.map->find(u);
    if (it == rf.map->end()) return false;
    ValueId v = step.table->column(rf.local_col).at(row);
    if (!std::binary_search(it->second.begin(), it->second.end(), v)) {
      return false;
    }
  }
  return true;
}

void QueryCursor::InitCandidates(size_t pos) {
  const Step& step = steps_[pos];
  cursor_[pos] = 0;
  if (step.reach_driver.has_value()) {
    const ReachSpec& d = *step.reach_driver;
    std::vector<RowId>& owned = owned_candidates_[pos];
    owned.clear();
    candidates_[pos] = &owned;
    ValueId u =
        steps_[d.from_pos].table->column(d.from_col).at(bound_[d.from_pos]);
    auto it = d.map->find(u);
    if (it == d.map->end()) return;  // nothing reachable: empty candidates
    // The cached reach list is a dense sorted ValueId span, probed one
    // morsel at a time through LookupBatch — the vectorized containment
    // filter of DESIGN.md §12. Candidates append in value order, then index
    // row order per value.
    const std::vector<ValueId>& vals = it->second;
    const size_t chunk = policy_.MorselSize();
    for (size_t lo = 0; lo < vals.size(); lo += chunk) {
      const size_t len = std::min(chunk, vals.size() - lo);
      rows_examined_ += len;
      if (interrupt_ && interrupt_()) {
        interrupted_ = true;
        return;
      }
      (void)step.reach_index->LookupBatch(vals.data() + lo, len, &batch_buf_);
      owned.insert(owned.end(), batch_buf_.rows.begin(),
                   batch_buf_.rows.end());
    }
    return;
  }
  if (step.index == nullptr) {
    candidates_[pos] = nullptr;  // full scan
    return;
  }
  auto& key = key_buf_[pos];
  for (size_t i = 0; i < step.key_sources.size(); ++i) {
    const KeySource& ks = step.key_sources[i];
    key[i] = (ks.from_pos < 0)
                 ? ks.constant
                 : steps_[ks.from_pos].table->column(ks.column).at(
                       bound_[ks.from_pos]);
  }
  candidates_[pos] =
      key.size() == 1 ? &step.index->Lookup1(key[0]) : &step.index->Lookup(key);
}

void QueryCursor::Rebind(const ValueId* values, size_t n) {
  // Replace the constants of the last n selections (AddSelection order):
  // probing callers clone a base query (possibly carrying its own
  // selections) and append one selection per projection column.
  const size_t offset = sel_slots_.size() - n;
  for (size_t i = 0; i < n; ++i) {
    const auto& [p, k] = sel_slots_[offset + i];
    steps_[p].key_sources[k].constant = values[i];
  }
  started_ = false;
  done_ = false;
  interrupted_ = false;
  depth_ = -1;
}

bool QueryCursor::Next(std::vector<ValueId>* row) {
  if (done_) return false;
  if (!started_) {
    started_ = true;
    depth_ = 0;
    InitCandidates(0);
    if (interrupted_) return false;
  }
  const int last = static_cast<int>(steps_.size()) - 1;
  while (depth_ >= 0) {
    const Step& step = steps_[depth_];
    const size_t limit = candidates_[depth_] != nullptr
                             ? candidates_[depth_]->size()
                             : step.table->num_rows();
    bool advanced = false;
    while (cursor_[depth_] < limit) {
      RowId r = candidates_[depth_] != nullptr
                    ? (*candidates_[depth_])[cursor_[depth_]]
                    : static_cast<RowId>(cursor_[depth_]);
      ++cursor_[depth_];
      ++rows_examined_;
      if ((rows_examined_ & kInterruptPollMask) == 0 && interrupt_ &&
          interrupt_()) {
        interrupted_ = true;
        return false;
      }
      if (RowPasses(step, r)) {
        bound_[depth_] = r;
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      --depth_;
      continue;
    }
    if (depth_ == last) {
      row->resize(proj_slots_.size());
      for (size_t i = 0; i < proj_slots_.size(); ++i) {
        const auto& [p, col] = proj_slots_[i];
        (*row)[i] = steps_[p].table->column(col).at(bound_[p]);
      }
      return true;
    }
    ++depth_;
    InitCandidates(depth_);
    if (interrupted_) return false;
  }
  done_ = true;
  return false;
}

Result<Table> ExecuteToTable(const Database& db, const PJQuery& query,
                             const std::string& name,
                             const std::vector<std::string>& column_names) {
  if (query.projections().empty()) {
    return Status::InvalidArgument("query has no projection columns");
  }
  FASTQRE_ASSIGN_OR_RETURN(auto cursor, QueryCursor::Create(db, query));

  Table out(name, db.dictionary());
  std::unordered_set<std::string> used_names;
  for (size_t i = 0; i < query.projections().size(); ++i) {
    const auto& p = query.projections()[i];
    const Column& src =
        db.table(query.instance_table(p.instance)).column(p.column);
    std::string col_name =
        i < column_names.size() ? column_names[i] : src.name();
    while (used_names.count(col_name) > 0) col_name += "_";
    used_names.insert(col_name);
    FASTQRE_RETURN_NOT_OK(out.AddColumn(col_name, src.type()));
  }

  // NOLINT-ANALYZER(governed-alloc): CLI/test materialization helper off
  // the governed search path; validation materializes via the block executor.
  std::unordered_set<std::vector<ValueId>, IdTupleHash> seen;
  std::vector<ValueId> row;
  while (cursor->Next(&row)) {
    if (seen.insert(row).second) {
      out.AppendRowIds(row);
    }
  }
  return out;
}

}  // namespace fastqre
