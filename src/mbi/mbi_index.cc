#include "mbi/mbi_index.h"

#include <algorithm>

#include "index/flat_block_index.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mbi {

namespace {

// Build-path metrics (Algorithm 3): leaf fills, cascade shape, build cost.
struct BuildMetrics {
  obs::Counter* vectors_added;
  obs::Counter* leaf_fills;
  obs::Counter* blocks_built;
  obs::Histogram* cascade_depth;
  obs::Histogram* block_seconds;
  obs::Gauge* total_build_seconds;
  obs::Gauge* index_blocks;
  obs::Gauge* index_vectors;

  static const BuildMetrics& Get() {
    static const BuildMetrics m = [] {
      auto& reg = obs::MetricRegistry::Default();
      return BuildMetrics{
          reg.GetCounter("mbi_build_vectors_added_total",
                         "vectors appended to MBI indexes"),
          reg.GetCounter("mbi_build_leaf_fills_total",
                         "inserts that completed a leaf block"),
          reg.GetCounter("mbi_build_blocks_built_total",
                         "block indexes constructed (leaves + merges)"),
          reg.GetHistogram("mbi_build_merge_cascade_depth",
                           obs::Histogram::LinearBounds(1, 1, 16),
                           "blocks finished by one leaf completion "
                           "(Algorithm 3 cascade length)"),
          reg.GetHistogram("mbi_build_block_seconds",
                           obs::Histogram::ExponentialBounds(1e-4, 4.0, 14),
                           "wall seconds to build one block index"),
          reg.GetGauge("mbi_build_seconds_total",
                       "cumulative wall seconds spent building blocks"),
          reg.GetGauge("mbi_index_blocks",
                       "materialized full blocks across all live MbiIndex "
                       "instances"),
          reg.GetGauge("mbi_index_vectors",
                       "vectors stored across all live MbiIndex instances"),
      };
    }();
    return m;
  }
};

// Query-path metrics (Algorithm 4): latency, fan-out, selectivity, work;
// all of them written by FinishQuery.
struct QueryMetrics {
  obs::Counter* queries;
  obs::Counter* empty_queries;
  obs::Counter* degraded;
  obs::Counter* deadline_exceeded;
  obs::Counter* cancelled;
  obs::Counter* shed;
  obs::Counter* invalid;
  obs::Histogram* seconds;
  obs::Histogram* blocks_searched;
  obs::Histogram* selectivity;
  obs::Histogram* distance_evals;
  // Work of the searched blocks (mbi_search_*).
  obs::Counter* graph_searches;
  obs::Counter* nodes_expanded;
  obs::Counter* graph_distance_evals;
  obs::Counter* pool_rejects;
  obs::Counter* filter_hits;
  obs::Counter* exact_scans;
  obs::Counter* exact_distance_evals;

  static const QueryMetrics& Get() {
    static const QueryMetrics m = [] {
      auto& reg = obs::MetricRegistry::Default();
      return QueryMetrics{
          reg.GetCounter("mbi_queries_total", "TkNN queries answered"),
          reg.GetCounter("mbi_queries_empty_total",
                         "queries whose window matched no vectors"),
          reg.GetCounter("mbi_query_degraded_total",
                         "queries returning partial results after budget "
                         "exhaustion (any reason)"),
          reg.GetCounter("mbi_query_deadline_exceeded_total",
                         "queries degraded specifically by deadline expiry"),
          reg.GetCounter("mbi_query_cancelled_total",
                         "queries stopped by their cancellation token"),
          reg.GetCounter("mbi_query_shed_total",
                         "queries rejected by admission control "
                         "(kResourceExhausted)"),
          reg.GetCounter("mbi_query_invalid_total",
                         "queries rejected at the API boundary (non-finite "
                         "vector components)"),
          reg.GetHistogram("mbi_query_seconds",
                           obs::Histogram::ExponentialBounds(1e-6, 4.0, 14),
                           "end-to-end TkNN query latency"),
          reg.GetHistogram("mbi_query_blocks_searched",
                           obs::Histogram::LinearBounds(1, 1, 16),
                           "blocks per search block set (Lemma 4.1: <= 2 "
                           "when tau <= 0.5)"),
          reg.GetHistogram("mbi_query_selectivity",
                           obs::Histogram::LinearBounds(0.1, 0.1, 10),
                           "fraction of the store inside the query window"),
          reg.GetHistogram("mbi_query_distance_evals",
                           obs::Histogram::ExponentialBounds(4, 4.0, 12),
                           "distance evaluations per query, all blocks"),
          reg.GetCounter("mbi_search_graph_searches_total",
                         "Algorithm 2 invocations (one per searched block)"),
          reg.GetCounter("mbi_search_nodes_expanded_total",
                         "candidate-pool pops whose edges were scanned"),
          reg.GetCounter("mbi_search_distance_evals_total",
                         "distance evaluations during graph search"),
          reg.GetCounter("mbi_search_pool_rejects_total",
                         "neighbors rejected by the bounded pool or the "
                         "epsilon range restriction"),
          reg.GetCounter("mbi_search_filter_hits_total",
                         "expanded vertices inside the query id filter"),
          reg.GetCounter("mbi_search_exact_scans_total",
                         "exact (BSBF-style) block scans, incl. adaptive "
                         "fallbacks"),
          reg.GetCounter("mbi_search_exact_distance_evals_total",
                         "distance evaluations spent in exact block scans"),
      };
    }();
    return m;
  }
};

// How a query ended, as far as the query metrics tell endings apart.
enum class QueryEnd {
  kShed,          // refused by admission control before it ran
  kInvalid,       // non-finite query vector
  kNothingAsked,  // k == 0: a complete, empty answer without work
  kEmptyWindow,   // the window matched no committed vector
  kSearched,
};

// The one place a query is accounted. Every mbi_query_* and mbi_search_*
// update, the trace's totals and the caller's accumulated stats derive from
// the query's record `rec`; `selectivity` is the window's share of the
// committed vectors (kSearched only).
void FinishQuery(QueryEnd end, double seconds, double selectivity,
                 const MbiQueryStats& rec, const SearchResult& result,
                 const QueryOptions& opts) {
  const QueryMetrics& metrics = QueryMetrics::Get();
  if (end == QueryEnd::kShed) {  // never ran: no answer, record or trace
    metrics.shed->Increment();
    return;
  }
  metrics.queries->Increment();
  if (end == QueryEnd::kInvalid) metrics.invalid->Increment();
  if (end == QueryEnd::kEmptyWindow) metrics.empty_queries->Increment();
  if (end == QueryEnd::kEmptyWindow || end == QueryEnd::kSearched) {
    metrics.seconds->Observe(seconds);
  }
  if (end == QueryEnd::kSearched) {
    metrics.selectivity->Observe(selectivity);
    metrics.blocks_searched->Observe(
        static_cast<double>(rec.blocks_searched()));
    metrics.distance_evals->Observe(
        static_cast<double>(rec.search.distance_evaluations));
    // Exact scans expand no vertex and reject nothing; every row they read
    // is a distance evaluation and a filter hit.
    metrics.graph_searches->Increment(rec.graph_blocks);
    metrics.nodes_expanded->Increment(rec.search.nodes_expanded);
    metrics.graph_distance_evals->Increment(rec.search.distance_evaluations -
                                            rec.exact_distance_evals);
    metrics.pool_rejects->Increment(rec.search.pool_rejects);
    metrics.filter_hits->Increment(rec.search.filter_hits -
                                   rec.exact_distance_evals);
    metrics.exact_scans->Increment(rec.exact_blocks);
    metrics.exact_distance_evals->Increment(rec.exact_distance_evals);
  }
  if (result.completion == Completion::kDegraded) {
    metrics.degraded->Increment();
    if (result.degrade_reason == DegradeReason::kDeadlineExceeded) {
      metrics.deadline_exceeded->Increment();
    } else if (result.degrade_reason == DegradeReason::kCancelled) {
      metrics.cancelled->Increment();
    }
  }
  if (opts.trace != nullptr) {
    opts.trace->totals = rec;
    opts.trace->total_seconds = seconds;
    opts.trace->results_returned = result.size();
    opts.trace->budget.completion = result.completion;
    opts.trace->budget.degrade_reason = result.degrade_reason;
  }
  if (opts.stats != nullptr) *opts.stats += rec;
}

}  // namespace

Status MbiParams::Validate() const {
  if (leaf_size < 1) {
    return Status::InvalidArgument("leaf_size must be >= 1");
  }
  if (!(tau > 0.0) || tau > 1.0) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (build.degree == 0) {
    return Status::InvalidArgument("graph degree must be >= 1");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (shed_retry_after_seconds < 0.0) {
    return Status::InvalidArgument(
        "shed_retry_after_seconds must be >= 0");
  }
  return Status::Ok();
}

MbiIndex::MbiIndex(size_t dim, Metric metric, const MbiParams& params)
    : params_(params), store_(dim, metric) {
  MBI_CHECK_OK(params.Validate());
  if (params_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(params_.num_threads);
  }
  snapshot_ = std::make_shared<const MbiSnapshot>();
}

MbiIndex::~MbiIndex() {
  // Withdraw this instance's contribution from the aggregate gauges.
  const BuildMetrics& metrics = BuildMetrics::Get();
  metrics.index_vectors->Add(-gauge_vectors_);
  metrics.index_blocks->Add(-gauge_blocks_);
}

Status MbiIndex::Add(const float* vector, Timestamp t) {
  MutexLock lock(writer_mu_);
  return AddLocked(vector, t);
}

Status MbiIndex::AddLocked(const float* vector, Timestamp t) {
  MBI_RETURN_IF_ERROR(store_.Append(vector, t));
  const BuildMetrics& metrics = BuildMetrics::Get();
  metrics.vectors_added->Increment();
  const int64_t n = static_cast<int64_t>(store_.size());
  if (n % params_.leaf_size == 0) {
    // This insert completed leaf number n / S_L: run the merge cascade
    // (Algorithm 3 lines 4-14), deferring work beyond the per-Add cap.
    metrics.leaf_fills->Increment();
    const std::vector<TreeNode> cascade =
        BlockTreeShape::MergeCascade(n / params_.leaf_size);
    metrics.cascade_depth->Observe(static_cast<double>(cascade.size()));
    pending_build_.insert(pending_build_.end(), cascade.begin(),
                          cascade.end());
  }
  if (!pending_build_.empty()) {
    // Backpressure: each Add pays for at most max_blocks_per_add builds (0 =
    // all). Deferred blocks stay queued in creation order, so blocks_ is
    // always a creation-order prefix and queries exact-scan the uncovered
    // tail via the pseudo-leaf.
    size_t take = pending_build_.size();
    if (params_.max_blocks_per_add != 0) {
      take = std::min(take, params_.max_blocks_per_add);
    }
    std::vector<TreeNode> nodes(pending_build_.begin(),
                                pending_build_.begin() +
                                    static_cast<int64_t>(take));
    pending_build_.erase(pending_build_.begin(),
                         pending_build_.begin() + static_cast<int64_t>(take));
    BuildNodes(nodes);
  }
  const double nv = static_cast<double>(store_.size());
  metrics.index_vectors->Add(nv - gauge_vectors_);
  gauge_vectors_ = nv;
  return Status::Ok();
}

Status MbiIndex::AddBatch(const float* vectors, const Timestamp* timestamps,
                          size_t count, bool defer_builds,
                          size_t* rows_applied) {
  MutexLock lock(writer_mu_);
  if (!defer_builds) {
    for (size_t i = 0; i < count; ++i) {
      Status s = AddLocked(vectors + i * store_.dim(), timestamps[i]);
      if (!s.ok()) {
        if (rows_applied != nullptr) *rows_applied = i;
        return Status(s.code(), s.message() + " (batch row " +
                                    std::to_string(i) + "; " +
                                    std::to_string(i) +
                                    " rows durably applied)");
      }
    }
    if (rows_applied != nullptr) *rows_applied = count;
    return Status::Ok();
  }
  MBI_RETURN_IF_ERROR(store_.AppendBatch(vectors, timestamps, count,
                                         rows_applied));
  const BuildMetrics& metrics = BuildMetrics::Get();
  metrics.vectors_added->Increment(count);
  const double nv = static_cast<double>(store_.size());
  metrics.index_vectors->Add(nv - gauge_vectors_);
  gauge_vectors_ = nv;
  BuildPendingBlocks();
  return Status::Ok();
}

void MbiIndex::FinishPendingBuilds() {
  MutexLock lock(writer_mu_);
  if (pending_build_.empty()) return;
  std::vector<TreeNode> nodes(pending_build_.begin(), pending_build_.end());
  pending_build_.clear();
  BuildNodes(nodes);
}

void MbiIndex::BuildPendingBlocks() {
  // Recomputed from the tree shape, so this also drains any builds deferred
  // by the per-Add cap — clear the queue to avoid building them twice.
  pending_build_.clear();
  const BlockTreeShape s = shape();
  std::vector<TreeNode> pending;
  for (const TreeNode& node : s.AllFullNodes()) {
    if (s.PostorderIndex(node) >= static_cast<int64_t>(blocks_.size())) {
      pending.push_back(node);
    }
  }
  // AllFullNodes is already in creation order; the filter preserves it.
  BuildNodes(pending);
}

void MbiIndex::BuildNodes(const std::vector<TreeNode>& nodes) {
  if (nodes.empty()) return;
  const BlockTreeShape s = shape();
  const BuildMetrics& metrics = BuildMetrics::Get();
  WallTimer timer;

  const size_t first = blocks_.size();
  blocks_.resize(first + nodes.size());
  // Disjoint-slot handoff: the writer sizes blocks_ up front (under
  // writer_mu_, which stays held across the whole build), then hands each
  // worker a distinct pre-existing slot through this raw pointer. Workers
  // never touch the vector object itself, so the accesses are race-free even
  // though the analysis cannot attribute them to writer_mu_.
  std::shared_ptr<const BlockKnnIndex>* const slots = &blocks_[first];
  auto build_one = [&, slots](size_t i) {
    const IdRange range = s.NodeRange(nodes[i]);
    WallTimer block_timer;
    // Note: per-block NNDescent runs serially here; parallelism comes from
    // building the independent blocks of the cascade concurrently, exactly
    // as described in the paper's "Parallelization of MBI".
    slots[i] =
        BuildBlockIndex(params_.block_kind, store_, range, params_.build,
                        /*pool=*/nullptr);
    metrics.block_seconds->Observe(block_timer.ElapsedSeconds());
    metrics.blocks_built->Increment();
  };

  if (pool_ != nullptr && nodes.size() > 1) {
    pool_->ParallelFor(nodes.size(), build_one);
  } else {
    for (size_t i = 0; i < nodes.size(); ++i) build_one(i);
  }

  // Creation order must equal postorder numbering (Algorithm 3).
  for (size_t i = 0; i < nodes.size(); ++i) {
    MBI_CHECK(s.PostorderIndex(nodes[i]) ==
              static_cast<int64_t>(first + i));
  }
  const double elapsed = timer.ElapsedSeconds();
  build_seconds_.fetch_add(elapsed, std::memory_order_relaxed);
  metrics.total_build_seconds->Add(elapsed);
  PublishSnapshot();
}

void MbiIndex::PublishSnapshot() {
  auto snap = std::make_shared<MbiSnapshot>();
  // blocks_ is a creation-order prefix of the tree's blocks. The covered
  // bound is the largest leaf count m whose full tree is materialized:
  // BlocksForLeaves(m) <= blocks_.size(). Without ingest backpressure every
  // full leaf is covered (blocks_.size() == BlocksForLeaves(full_leaves));
  // with a per-Add cap the deferred suffix stays uncovered and queries
  // exact-scan it as part of the committed tail.
  const int64_t full_leaves =
      static_cast<int64_t>(store_.size()) / params_.leaf_size;
  int64_t lo = 0, hi = full_leaves;  // BlocksForLeaves is monotone in m
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo + 1) / 2;
    if (BlockTreeShape::BlocksForLeaves(mid) <=
        static_cast<int64_t>(blocks_.size())) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  snap->covered_end = lo * params_.leaf_size;
  MBI_DCHECK(pending_build_.empty()
                 ? static_cast<int64_t>(blocks_.size()) ==
                       BlockTreeShape::BlocksForLeaves(full_leaves)
                 : lo <= full_leaves);
  snap->blocks = blocks_;
  {
    std::shared_ptr<const MbiSnapshot> published = std::move(snap);
    MutexLock lock(snapshot_mu_);
    snapshot_.swap(published);
    // `published` (the retired snapshot) is released outside the lock.
  }

  const BuildMetrics& metrics = BuildMetrics::Get();
  const double nb = static_cast<double>(blocks_.size());
  metrics.index_blocks->Add(nb - gauge_blocks_);
  gauge_blocks_ = nb;
  const double nv = static_cast<double>(store_.size());
  metrics.index_vectors->Add(nv - gauge_vectors_);
  gauge_vectors_ = nv;
}

void MbiIndex::InstallBlocks(
    std::vector<std::shared_ptr<const BlockKnnIndex>> blocks) {
  MutexLock lock(writer_mu_);
  blocks_ = std::move(blocks);
  PublishSnapshot();
}

ReadView MbiIndex::AcquireReadView() const {
  ReadView view;
  // Order matters: snapshot first, then committed size. The writer commits
  // vectors *before* publishing blocks that cover them, so loading in the
  // reverse order here guarantees num_vectors >= snapshot->covered_end.
  {
    MutexLock lock(snapshot_mu_);
    view.snapshot = snapshot_;
  }
  view.num_vectors = store_.size();
  return view;
}

std::vector<SelectedBlock> MbiIndex::SelectSearchBlocksForRange(
    const IdRange& range, double tau, std::vector<SelectionStep>* steps) const {
  const ReadView view = AcquireReadView();
  return SelectForView(view.snapshot->covered_end,
                       static_cast<int64_t>(view.num_vectors), range, tau,
                       steps);
}

std::vector<SelectedBlock> MbiIndex::SelectForView(
    int64_t covered_end, int64_t num_vectors, const IdRange& range, double tau,
    std::vector<SelectionStep>* steps) const {
  // Blocks are contiguous id slices, so both the query and each block are
  // intervals on the id axis; the overlap ratio is a count fraction.
  //
  // Selection runs over the tree of the *covered* prefix only — those blocks
  // are guaranteed to exist in the view — and the committed tail
  // [covered_end, num_vectors) is appended as one graph-less pseudo-leaf,
  // exactly like the partial tail leaf of the serial index.
  std::vector<SelectedBlock> out;
  if (covered_end > 0 && range.begin < covered_end) {
    out = SelectBlocks(
        BlockTreeShape(covered_end, params_.leaf_size),
        TimeWindow{range.begin, range.end}, tau,
        [](const IdRange& r) { return TimeWindow{r.begin, r.end}; }, steps);
  }
  const IdRange tail{covered_end, num_vectors};
  if (!tail.Empty() && range.end > tail.begin && range.begin < tail.end) {
    const int64_t overlap = std::min(range.end, tail.end) -
                            std::max(range.begin, tail.begin);
    SelectedBlock sel;
    sel.node = TreeNode{0, covered_end / params_.leaf_size};
    sel.range = tail;
    sel.has_graph = false;
    sel.overlap_ratio =
        static_cast<double>(overlap) / static_cast<double>(tail.size());
    if (steps != nullptr) {
      steps->push_back(SelectionStep{sel.node, sel.range, sel.overlap_ratio,
                                     SelectionDecision::kSelectedLeaf});
    }
    out.push_back(sel);
  }
  return out;
}

Result<SearchResult> MbiIndex::SearchAdmitted(const float* query,
                                              const TimeWindow& window,
                                              const SearchParams& search,
                                              QueryContext* ctx,
                                              const QueryOptions& opts) const {
  const size_t limit = params_.max_inflight_queries;
  const size_t mine = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (limit != 0 && mine > limit) {
    // Shed without touching the index: under overload, a fast rejection the
    // caller can retry beats joining an unbounded queue.
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    FinishQuery(QueryEnd::kShed, 0.0, 0.0, {}, {}, opts);
    // Structured retry-after payload for retry policies; the message keeps
    // the same hint in prose for humans reading logs.
    return Status::ResourceExhausted(
               "query shed: " + std::to_string(limit) +
               " queries already in flight; retry after " +
               std::to_string(params_.shed_retry_after_seconds) + " s")
        .WithRetryAfter(params_.shed_retry_after_seconds);
  }
  // Track the admission high-water mark (tests assert it never exceeds the
  // configured limit).
  size_t seen = inflight_high_water_.load(std::memory_order_relaxed);
  while (mine > seen && !inflight_high_water_.compare_exchange_weak(
                            seen, mine, std::memory_order_relaxed)) {
  }
  SearchResult result = Search(query, window, search, ctx, opts);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  if (result.completion == Completion::kInvalidArgument) {
    return Status::InvalidArgument(
        "query vector has non-finite (NaN/Inf) components");
  }
  return result;
}

SearchResult MbiIndex::Search(const float* query, const TimeWindow& window,
                              const SearchParams& search, QueryContext* ctx,
                              const QueryOptions& opts) const {
  WallTimer query_timer;
  ReadView pinned;
  const ReadView& view =
      opts.view != nullptr ? *opts.view : (pinned = AcquireReadView());
  const double tau = opts.tau.value_or(params_.tau);
  obs::QueryTrace* const trace = opts.trace;
  if (trace != nullptr) {
    *trace = obs::QueryTrace{};
    trace->window = window;
    trace->tau = tau;
    trace->params = search;
  }

  // API-boundary validation, before any work: a NaN/Inf query would poison
  // every distance comparison (NaN compares false both ways), and k == 0 or
  // an empty/inverted window asks for nothing — a complete answer.
  if (!IsFiniteVector(query, store_.dim())) {
    SearchResult bad;
    bad.completion = Completion::kInvalidArgument;
    FinishQuery(QueryEnd::kInvalid, query_timer.ElapsedSeconds(), 0.0, {},
                bad, opts);
    return bad;
  }
  if (search.k == 0) {
    FinishQuery(QueryEnd::kNothingAsked, query_timer.ElapsedSeconds(), 0.0,
                {}, {}, opts);
    return {};
  }

  // Map the time window to its id range once (Algorithm 1 line 1), bounded
  // by the view's committed prefix so one size governs the whole query; all
  // per-block filtering happens on ids.
  const IdRange qrange =
      view.num_vectors == 0
          ? IdRange{0, 0}
          : store_.FindRangeInPrefix(window, view.num_vectors);
  if (trace != nullptr) trace->id_range = qrange;
  if (qrange.Empty()) {
    FinishQuery(QueryEnd::kEmptyWindow, query_timer.ElapsedSeconds(), 0.0,
                {}, {}, opts);
    return {};
  }

  BudgetTracker budget(search.budget);
  const bool bounded = budget.bounded();

  TopKHeap heap(search.k);
  MbiQueryStats rec;  // the only tally the block loop writes
  const MbiSnapshot& snap = *view.snapshot;
  std::vector<SelectedBlock> selected =
      SelectForView(snap.covered_end, static_cast<int64_t>(view.num_vectors),
                    qrange, tau, trace != nullptr ? &trace->selection
                                                  : nullptr);

  // Degradation policy: under a budget, search high-overlap blocks first so
  // that if the budget runs dry the blocks skipped are the ones expected to
  // contribute least (lowest r_o). Unbudgeted queries keep selection order.
  if (bounded) {
    std::stable_sort(selected.begin(), selected.end(),
                     [](const SelectedBlock& a, const SelectedBlock& b) {
                       return a.overlap_ratio > b.overlap_ratio;
                     });
  }

  size_t blocks_skipped = 0;
  for (size_t sel_i = 0; sel_i < selected.size(); ++sel_i) {
    const SelectedBlock& sel = selected[sel_i];
    if (bounded) {
      budget.CheckNow();
      if (budget.Exhausted()) {
        blocks_skipped = selected.size() - sel_i;
        break;
      }
    }
    // If the block lies entirely inside the query range, drop the filter:
    // every vertex qualifies, so the search degenerates to plain kNN.
    const bool fully_covered =
        qrange.begin <= sel.range.begin && sel.range.end <= qrange.end;
    const IdRange* filter = fully_covered ? nullptr : &qrange;

    bool use_graph = sel.has_graph;
    SearchParams block_search = search;
    if (bounded) {
      // Shrink-ef-first: as the budget drains, later blocks explore with a
      // proportionally smaller candidate pool (never below k) before any
      // block is skipped outright.
      block_search.max_candidates = std::max(
          search.k, static_cast<size_t>(static_cast<double>(
                        block_search.max_candidates) *
                    budget.FractionRemaining()));
    }
    if (use_graph && params_.adaptive_block_search) {
      IdRange scan = sel.range;
      scan.begin = std::max(scan.begin, qrange.begin);
      scan.end = std::min(scan.end, qrange.end);
      const int64_t block_in_window = std::max<int64_t>(scan.size(), 0);

      // Per-block candidate scaling: Theorem 4.2 charges each block
      // O(log + k/tau) work, not a full M_C — give each block a share of
      // the candidate budget proportional to its share of the window.
      const double share =
          qrange.size() > 0
              ? static_cast<double>(block_in_window) / qrange.size()
              : 1.0;
      block_search.max_candidates = std::max<size_t>(
          2 * search.k,
          static_cast<size_t>(search.max_candidates * share + 0.5));

      // Exact-scan fallback: when few in-window vectors fall inside this
      // block, a scan costs fewer distance evaluations than the graph
      // search (which touches ~M_C * degree vectors) and is always exact.
      const double graph_cost =
          static_cast<double>(std::min<int64_t>(
              sel.range.size(),
              static_cast<int64_t>(block_search.max_candidates))) *
          static_cast<double>(params_.build.degree);
      if (static_cast<double>(block_in_window) <= graph_cost) {
        use_graph = false;
      }
    }

    SearchStats block_stats;
    size_t block_hits = 0;
    WallTimer block_timer;
    if (use_graph) {
      const int64_t idx =
          BlockTreeShape(snap.covered_end, params_.leaf_size)
              .PostorderIndex(sel.node);
      MBI_DCHECK(idx >= 0 && idx < static_cast<int64_t>(snap.blocks.size()));
      // Each block runs an *independent* Algorithm 2 query whose results are
      // then unioned (Algorithm 4 lines 6/8). Sharing one result set would
      // let a previous block's hits range-restrict this block's search from
      // its very first (random) hop, stalling navigation.
      TopKHeap block_heap(search.k);
      snap.blocks[static_cast<size_t>(idx)]->Search(
          store_, query, block_search, filter, ctx->searcher(), ctx->rng(),
          &block_heap, &block_stats, bounded ? &budget : nullptr);
      block_hits = block_heap.contents().size();
      for (const Neighbor& nb : block_heap.contents()) {
        heap.Push(nb.distance, nb.id);
      }
      ++rec.graph_blocks;
    } else {
      // Non-full tail leaf (or adaptive fallback): Algorithm 4 line 6 (BSBF
      // inside the block).
      ExactScan(store_, sel.range, query, filter, &heap, &block_stats,
                bounded ? &budget : nullptr);
      block_hits = block_stats.filter_hits;
      ++rec.exact_blocks;
      rec.exact_distance_evals += block_stats.distance_evaluations;
    }
    rec.search += block_stats;
    if (trace != nullptr) {
      trace->blocks.push_back(obs::BlockTrace{
          sel.node, sel.range, sel.overlap_ratio, use_graph, fully_covered,
          block_stats, block_timer.ElapsedSeconds(), block_hits});
    }
  }

  const double elapsed = query_timer.ElapsedSeconds();
  SearchResult result = heap.ExtractSorted();
  if (budget.Exhausted()) {
    result.completion = Completion::kDegraded;
    result.degrade_reason = budget.reason();
    result.blocks_skipped = blocks_skipped;
  }
  if (trace != nullptr) {
    obs::BudgetTrace& bt = trace->budget;
    bt.bounded = bounded;
    if (search.budget != nullptr) {
      bt.max_distance_evals = search.budget->max_distance_evals;
      bt.max_hops = search.budget->max_hops;
      if (!search.budget->deadline.infinite()) {
        // Total allowance as seen at query start: remaining + elapsed.
        bt.deadline_seconds = search.budget->deadline.RemainingSeconds() +
                              elapsed;
      }
    }
    bt.distance_evals_spent = budget.distance_evals();
    bt.hops_spent = budget.hops();
    bt.blocks_skipped = blocks_skipped;
  }
  FinishQuery(QueryEnd::kSearched, elapsed,
              static_cast<double>(qrange.size()) /
                  static_cast<double>(view.num_vectors),
              rec, result, opts);
  return result;
}

MbiStats MbiIndex::GetStats() const {
  // Stats come from a pinned view so they are mutually consistent even while
  // the writer runs.
  const ReadView view = AcquireReadView();
  const MbiSnapshot& snap = *view.snapshot;
  MbiStats out;
  out.num_vectors = view.num_vectors;
  out.num_blocks = snap.blocks.size();
  out.store_bytes =
      view.num_vectors * (store_.dim() * sizeof(float) + sizeof(Timestamp));
  out.cumulative_build_seconds = build_seconds_.load(std::memory_order_relaxed);

  std::vector<bool> level_seen;
  const BlockTreeShape s(snap.covered_end, params_.leaf_size);
  for (const TreeNode& node : s.AllFullNodes()) {
    if (static_cast<size_t>(node.height) >= level_seen.size()) {
      level_seen.resize(node.height + 1, false);
    }
    level_seen[node.height] = true;
  }
  out.num_levels = static_cast<size_t>(
      std::count(level_seen.begin(), level_seen.end(), true));
  for (const auto& b : snap.blocks) out.index_bytes += b->MemoryBytes();
  return out;
}

}  // namespace mbi
