#include "graph/search.h"

#include <algorithm>

#include "util/check.h"

namespace mbi {

size_t GraphSearcher::PoolInsert(float dist, NodeId id, size_t capacity) {
  if (pool_.size() == capacity && dist >= pool_.back().dist) return SIZE_MAX;
  auto it = std::lower_bound(
      pool_.begin(), pool_.end(), dist,
      [](const Candidate& c, float d) { return c.dist < d; });
  size_t pos = static_cast<size_t>(it - pool_.begin());
  if (pool_.size() == capacity) pool_.pop_back();
  pool_.insert(pool_.begin() + pos, Candidate{dist, id, false});
  return pos;
}

void GraphSearcher::Search(const VectorStore& store, const KnnGraph& graph,
                           const IdRange& range, const float* query,
                           const SearchParams& params, const IdRange* id_filter,
                           Rng* rng, TopKHeap* results, SearchStats* stats,
                           BudgetTracker* budget) {
  const size_t n = static_cast<size_t>(range.size());
  MBI_CHECK(graph.num_nodes() == n);
  if (n == 0) return;

  // While the result set holds fewer than k in-window vectors, the candidate
  // set may grow without bound: the paper's SF "continues searching until it
  // identifies k or more vectors within the time window" (Section 3.2.2),
  // which is what makes it slow-but-accurate on short windows. Once R is
  // full, C is pruned to the M_C nearest (Algorithm 2 lines 16-17).
  const size_t bounded_capacity = std::max(params.max_candidates, params.k);
  const DistanceFunction& dist = store.distance();
  // Per-access lookup instead of a cached base pointer: the store is chunked,
  // so the slice [range.begin, range.end) need not be contiguous in memory.
  const VectorSlice rows(store, range.begin);

  pool_.clear();
  pool_.reserve(bounded_capacity + 1);
  queued_.EnsureCapacity(n);
  queued_.Reset();

  SearchStats local_stats;

  const bool budgeted = budget != nullptr && budget->active();

  // Line 1: random entry vertices.
  const size_t entries = std::min(std::max<size_t>(1, params.num_entry_points), n);
  for (size_t i = 0; i < entries; ++i) {
    NodeId s = static_cast<NodeId>(rng->NextBounded(n));
    if (queued_.TestAndSet(s)) continue;
    float d = dist(query, rows.row(static_cast<size_t>(s)));
    ++local_stats.distance_evaluations;
    if (budgeted && !budget->ChargeDistance()) break;
    PoolInsert(d, s, bounded_capacity);
  }

  // Lines 5-17: expand the nearest unexpanded candidate until none remain
  // (or, under a budget, until the budget is exhausted — the pool and the
  // result set are valid at every iteration boundary, so stopping early
  // degrades recall but never correctness).
  size_t scan_from = 0;
  while (scan_from < pool_.size()) {
    if (pool_[scan_from].expanded) {
      ++scan_from;
      continue;
    }
    if (budgeted && (budget->Exhausted() || !budget->ChargeHop())) break;
    Candidate& cur = pool_[scan_from];
    cur.expanded = true;
    ++local_stats.nodes_expanded;
    const NodeId v = cur.id;
    const float cur_dist = cur.dist;

    // Lines 12-15: in-window vertices feed the result set.
    const VectorId global_id = range.begin + static_cast<VectorId>(v);
    if (id_filter == nullptr ||
        (id_filter->begin <= global_id && global_id < id_filter->end)) {
      ++local_stats.filter_hits;
      const bool was_full = results->Full();
      results->Push(cur_dist, global_id);
      if (!was_full && results->Full() && pool_.size() > bounded_capacity) {
        // R just reached k: prune the grown candidate set back to M_C.
        pool_.resize(bounded_capacity);
        if (scan_from > pool_.size()) scan_from = pool_.size();
      }
    }

    // Lines 8-11: neighbor expansion, range-restricted once |R| >= k.
    // The bound must *loosen* max(R) by epsilon regardless of sign: inner-
    // product distances are negative, where multiplying by epsilon > 1 would
    // tighten the bound instead.
    const bool restrict_range = results->Full();
    float bound = 0.0f;
    if (restrict_range) {
      const float worst = results->WorstDistance();
      bound = worst >= 0.0f ? params.epsilon * worst : worst / params.epsilon;
    }
    const size_t capacity = restrict_range ? bounded_capacity : SIZE_MAX;
    size_t min_inserted = SIZE_MAX;
    for (NodeId nb : graph.Neighbors(v)) {
      if (nb == kInvalidNode) break;
      if (queued_.Test(nb)) continue;
      float d = dist(query, rows.row(static_cast<size_t>(nb)));
      ++local_stats.distance_evaluations;
      if (budgeted && !budget->ChargeDistance()) break;
      if (restrict_range && !(d < bound)) {
        ++local_stats.pool_rejects;
        continue;
      }
      queued_.Set(nb);
      size_t pos = PoolInsert(d, nb, capacity);
      if (pos != SIZE_MAX) {
        min_inserted = std::min(min_inserted, pos);
      } else {
        ++local_stats.pool_rejects;
      }
    }
    // Restart the scan at the nearest newly inserted candidate.
    if (min_inserted < scan_from) scan_from = min_inserted;
  }

  if (stats != nullptr) *stats += local_stats;
}

}  // namespace mbi
