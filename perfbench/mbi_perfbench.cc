// mbi_perfbench — the repository benchmark for the MBI library.
//
// Runs one seeded workload through the library's public API from a single
// thread, checks every answer, and prints its metrics. See README.md in this
// directory for why each workload exists and which end-to-end metric each
// per-layer metric should move.
//
//   mbi_perfbench --workload <tknn-angular|ingest-l2|sharded-l2>
//                 --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 measures the end-to-end metrics with no timers beyond one clock
// pair around each operation. --trace 1 is a separate run that replays every
// query outside-in — window mapping, block selection, per-block search or
// exact scan, merge — through the same public functions MbiIndex::Search and
// ShardedMbi::Search call, times each call, and fails the run unless the
// replay reproduces the library's answer bit for bit.
//
// Output: a `host_probe {...}` line timing a fixed compute loop before and
// after the workload, a `fingerprint {...}` line of deterministic work
// counters, then a last `result {...}` line with
// correct/attempted/failed/metrics. Failed
// checks are listed on stderr. The exit code is 0 whenever a result was
// printed; `correct` says whether every check passed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baseline/bsbf.h"
#include "core/distance.h"
#include "core/topk.h"
#include "core/types.h"
#include "core/vector_store.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "index/block_index.h"
#include "index/flat_block_index.h"
#include "mbi/block_tree.h"
#include "mbi/mbi_index.h"
#include "obs/metrics.h"
#include "shard/sharded_mbi.h"
#include "util/rng.h"

namespace mbi::perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

double Since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Nearest-rank percentile; p in [0, 1], where 0 gives the minimum.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// All digits of a double, as JSON.
std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Report

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> fingerprint;  // raw JSON

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Print(const std::string& key, const std::string& json_value) {
    fingerprint.push_back({key, json_value});
  }
  void Count(const std::string& key, double value) { Print(key, Fmt(value)); }

  // A broken run-level contract (replay drift, recovery mismatch, recall
  // floor): the run is not correct.
  void Fail(const std::string& why) {
    correct = false;
    if (++fail_lines_ <= 20) std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }

  // One attempted operation; `why` is empty when it succeeded.
  void Op(const std::string& why) {
    ++attempted;
    if (!why.empty()) {
      ++failed;
      Fail(why);
    }
  }

 private:
  int fail_lines_ = 0;
};

// ---------------------------------------------------------------------------
// Answer checks

uint32_t Bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

bool SameAnswer(const SearchResult& a, const SearchResult& b) {
  if (a.size() != b.size() || a.completion != b.completion) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || Bits(a[i].distance) != Bits(b[i].distance)) {
      return false;
    }
  }
  return true;
}

// Empty when `r` is a valid answer to a query over global ids `ids`:
// complete, at most k hits sorted by (distance, id) with no duplicate id,
// every id inside the window, every distance bit-identical to a fresh
// DistanceFunction call on the stored row (`recompute(id)`).
template <typename Recompute>
std::string CheckAnswer(const SearchResult& r, const IdRange& ids, size_t k,
                        const Recompute& recompute) {
  if (r.completion != Completion::kComplete) return "answer not complete";
  if (r.size() > k) return "more than k hits";
  std::vector<VectorId> seen;
  for (size_t i = 0; i < r.size(); ++i) {
    const Neighbor& nb = r[i];
    if (nb.id < ids.begin || nb.id >= ids.end) {
      return "id " + std::to_string(nb.id) + " outside the window";
    }
    if (i > 0 && !(r[i - 1] < nb)) return "hits not sorted";
    if (Bits(recompute(nb.id)) != Bits(nb.distance)) {
      return "distance of id " + std::to_string(nb.id) + " does not recompute";
    }
    seen.push_back(nb.id);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "duplicate id";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Inputs

struct Query {
  const float* vector = nullptr;
  TimeWindow window;   // timestamps are arrival ids 0..n-1
  uint64_t seed = 0;   // QueryContext seed, so every run of a query repeats
};

// The rows of every workload are its dataset's stand-in as the repository
// pins it (the spec's own generator seed), the same on every --seed. Rows
// drawn per seed would change the cluster geometry, and with it the work
// per query by up to 12% between seeds, which every timing spread over
// seeds would carry. The seed draws the query vectors, the windows and the
// search seeds.
SyntheticParams Generator(const std::string& dataset) {
  return FindDatasetSpec(dataset).gen;
}

// `count` query vectors drawn by `seed` from a pool of held-out points of
// the dataset.
std::vector<float> QueryVectors(const std::string& dataset, size_t count,
                                uint64_t seed) {
  constexpr size_t kPool = 8192;
  const SyntheticParams gen = Generator(dataset);
  const std::vector<float> pool = GenerateQueries(gen, kPool);
  std::vector<size_t> order(kPool);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(DeriveSeedStream(seed, dataset + "/queries"));
  std::vector<float> out;
  for (size_t i = 0; i < std::min(count, kPool); ++i) {
    std::swap(order[i], order[i + rng.NextBounded(kPool - i)]);
    const float* v = pool.data() + order[i] * gen.dim;
    out.insert(out.end(), v, v + gen.dim);
  }
  return out;
}

// Windows of each fraction of `n` rows, `per_fraction` of each, placed
// uniformly at random; query vectors are distinct held-out points.
std::vector<Query> MakeQueries(const std::vector<float>& vectors, size_t dim,
                               int64_t n, const std::vector<double>& fractions,
                               size_t per_fraction, uint64_t seed) {
  Rng rng(DeriveSeedStream(seed, "windows"));
  std::vector<Query> out;
  for (size_t i = 0; i < fractions.size() * per_fraction; ++i) {
    const double f = fractions[i % fractions.size()];
    const int64_t m = std::clamp<int64_t>(
        static_cast<int64_t>(std::llround(f * static_cast<double>(n))), 1, n);
    const int64_t start =
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n - m + 1)));
    Query q;
    q.vector = vectors.data() + (i % (vectors.size() / dim)) * dim;
    q.window = TimeWindow{start, start + m};
    q.seed = DeriveSeedStream(seed, "query/" + std::to_string(i));
    out.push_back(q);
  }
  return out;
}

IdRange WindowIds(const TimeWindow& w) { return IdRange{w.start, w.end}; }

// MbiIndex::Search with the context reseeded, so a query's answer and work
// counters are the same on every run of it.
SearchResult SearchSeeded(const MbiIndex& index, const Query& q,
                          const SearchParams& sp, QueryContext* ctx) {
  *ctx->rng() = Rng(q.seed);
  return index.Search(q.vector, q.window, sp, ctx);
}

// ---------------------------------------------------------------------------
// Outside-in replay of MbiIndex::Search (Algorithm 4), one span per layer.

struct LayerSpans {
  size_t queries = 0;
  double map_s = 0, select_s = 0, graph_s = 0, exact_s = 0, merge_s = 0;
  size_t blocks = 0;
  size_t exact_rows = 0;
  SearchStats graph;
  SearchStats all;  // graph + exact, for the fingerprint
  // MbiIndex::Search calls and their replays, for the tracing overhead.
  double real_s = 0, replay_s = 0;
};

SearchResult ReplaySearch(const MbiIndex& index, const Query& q,
                          const SearchParams& sp, QueryContext* ctx,
                          LayerSpans* s, bool* drift) {
  const VectorStore& store = index.store();
  auto t = SteadyClock::now();
  const ReadView view = index.AcquireReadView();
  const IdRange qrange =
      view.num_vectors == 0
          ? IdRange{0, 0}
          : store.FindRangeInPrefix(q.window, view.num_vectors);
  s->map_s += Since(t);
  if (qrange.Empty()) return {};

  t = SteadyClock::now();
  const std::vector<SelectedBlock> selected =
      index.SelectSearchBlocksForRange(qrange, index.params().tau);
  s->select_s += Since(t);

  const BlockTreeShape shape(view.snapshot->covered_end,
                             index.params().leaf_size);
  TopKHeap heap(sp.k);
  for (const SelectedBlock& sel : selected) {
    const bool fully_covered =
        qrange.begin <= sel.range.begin && sel.range.end <= qrange.end;
    const IdRange* filter = fully_covered ? nullptr : &qrange;
    SearchStats st;
    if (sel.has_graph) {
      const int64_t idx = shape.PostorderIndex(sel.node);
      if (idx < 0 || idx >= static_cast<int64_t>(view.snapshot->blocks.size())) {
        *drift = true;
        return {};
      }
      TopKHeap block_heap(sp.k);
      t = SteadyClock::now();
      view.snapshot->blocks[static_cast<size_t>(idx)]->Search(
          store, q.vector, sp, filter, ctx->searcher(), ctx->rng(),
          &block_heap, &st);
      s->graph_s += Since(t);
      t = SteadyClock::now();
      for (const Neighbor& nb : block_heap.contents()) {
        heap.Push(nb.distance, nb.id);
      }
      s->merge_s += Since(t);
      s->graph += st;
    } else {
      t = SteadyClock::now();
      ExactScan(store, sel.range, q.vector, filter, &heap, &st);
      s->exact_s += Since(t);
      s->exact_rows += st.distance_evaluations;
    }
    s->all += st;
  }
  s->blocks += selected.size();
  t = SteadyClock::now();
  SearchResult out = heap.ExtractSorted();
  s->merge_s += Since(t);
  return out;
}

// Runs `q` through MbiIndex::Search and through the replay with equally
// seeded contexts, fails the run unless they agree, and returns the
// library's answer. Alternating which runs first keeps cache warmth fair.
SearchResult SearchAndReplay(const MbiIndex& index, const Query& q,
                             const SearchParams& sp, QueryContext* ctx,
                             LayerSpans* spans, bool replay_first,
                             Report* rep) {
  SearchResult real, replay;
  bool drift = false;
  for (int step = 0; step < 2; ++step) {
    *ctx->rng() = Rng(q.seed);
    const auto t = SteadyClock::now();
    if ((step == 0) == replay_first) {
      replay = ReplaySearch(index, q, sp, ctx, spans, &drift);
      spans->replay_s += Since(t);
    } else {
      real = index.Search(q.vector, q.window, sp, ctx);
      spans->real_s += Since(t);
    }
  }
  if (drift || !SameAnswer(real, replay)) {
    rep->Fail("outside-in replay does not reproduce MbiIndex::Search");
  }
  return real;
}

// ---------------------------------------------------------------------------
// Replay of ShardedMbi::Search (serial fan-out): plan, per-shard
// MbiIndex::Search on the pinned shard(i), MergeShardResults.

struct ShardSpans {
  size_t queries = 0;
  size_t probes = 0;
  double probe_s = 0, merge_s = 0;
};

// Every probe is also replayed outside-in into `layers` and must match.
SearchResult ReplaySharded(const shard::ShardedMbi& sharded, const Query& q,
                           const SearchParams& sp, QueryContext* ctx,
                           bool replay_first, ShardSpans* s,
                           LayerSpans* layers, Report* rep) {
  // ShardedMbi::Search draws one seed from the caller's context and derives
  // every probe's context from it.
  Rng caller(q.seed);
  const uint64_t query_seed = caller.Next();
  const size_t n = sharded.num_shards();
  const int64_t span = sharded.params().shard_span;
  const int64_t lo_t = std::max<Timestamp>(q.window.start, 0);
  const int64_t hi_t =
      std::min<Timestamp>(q.window.end, static_cast<int64_t>(n) * span);
  std::vector<SearchResult> parts;
  for (size_t i = 0; i < n && hi_t > lo_t; ++i) {
    const TimeWindow owned = sharded.ShardWindow(i);
    if (owned.end <= lo_t || owned.start >= hi_t) continue;
    auto index = sharded.shard(i);
    auto base = sharded.shard_base(i);
    if (!index.ok() || !base.ok()) {
      rep->Fail("shard " + std::to_string(i) + " unavailable");
      continue;
    }
    const MbiIndex& shard = *index.value();
    if (shard.size() == 0) continue;
    Query probe = q;
    probe.seed = DeriveSeedStream(
        query_seed, "shard/" + std::to_string(i) + "/attempt/0");
    const double real_before = layers->real_s;
    SearchResult part =
        SearchAndReplay(shard, probe, sp, ctx, layers, replay_first, rep);
    s->probe_s += layers->real_s - real_before;
    ++s->probes;
    for (Neighbor& nb : part) nb.id += base.value();
    parts.push_back(std::move(part));
  }
  ++s->queries;
  std::vector<const SearchResult*> ptrs;
  for (const SearchResult& p : parts) ptrs.push_back(&p);
  const auto t = SteadyClock::now();
  SearchResult merged = shard::MergeShardResults(sp.k, ptrs);
  s->merge_s += Since(t);
  return merged;
}

// ---------------------------------------------------------------------------
// Per-layer helpers

// ns per DistanceFunction call over the first 1 MiB of `flat` viewed as
// consecutive `dim`-float rows: the workload's own data, re-cut to the
// kernel's width, in a working set that stays in cache on every workload.
double KernelNs(Metric metric, size_t dim, const std::vector<float>& flat) {
  const DistanceFunction f(metric, dim);
  const size_t rows = std::min<size_t>(flat.size(), 1 << 18) / dim;
  constexpr size_t kPairs = 1 << 20;
  std::vector<double> reps;
  volatile float sink = 0.0f;
  for (int r = 0; r < 5; ++r) {
    float acc = 0.0f;
    size_t a = 0, b = rows / 2 + 1;
    const auto t = SteadyClock::now();
    for (size_t p = 0; p < kPairs; ++p) {
      acc += f(flat.data() + a * dim, flat.data() + b * dim);
      if (++a == rows) a = 0;
      b += 7;
      if (b >= rows) b -= rows;
    }
    reps.push_back(Since(t));
    sink = sink + acc;
  }
  return Median(reps) / kPairs * 1e9;
}

struct HistogramReading {
  double sum = 0, count = 0;
};

HistogramReading NnDescentIterations() {
  const obs::Histogram* h = obs::MetricRegistry::Default().GetHistogram(
      "mbi_nndescent_iterations", obs::Histogram::LinearBounds(1, 1, 16));
  return {h->Sum(), static_cast<double>(h->Count())};
}

struct PersistReading {
  double bytes = 0, written = 0, reused = 0;
};

PersistReading PersistCounters() {
  auto& reg = obs::MetricRegistry::Default();
  return {static_cast<double>(
              reg.GetCounter("mbi_persist_checkpoint_bytes_total")->Value()),
          static_cast<double>(
              reg.GetCounter("mbi_persist_segments_written_total")->Value()),
          static_cast<double>(
              reg.GetCounter("mbi_persist_segments_reused_total")->Value())};
}

// graph.build_s.h0 .. h4: the 16-leaf trees of tknn-angular and ingest-l2.
constexpr int kTreeHeights = 5;

// Replays BuildBlockIndex for the first block of every tree height over the
// index's final store (median of 3 builds) and checks that it reproduces the
// live block. A height the index does not have (the 4-leaf shards of
// sharded-l2 stop at h2) reports 0.
void BuildReplay(const MbiIndex& index, const Query& probe,
                 const SearchParams& sp, Report* rep) {
  const ReadView view = index.AcquireReadView();
  const BlockTreeShape shape(view.snapshot->covered_end,
                             index.params().leaf_size);
  for (int h = 0; h < kTreeHeights; ++h) {
    const std::string name = "graph.build_s.h" + std::to_string(h);
    const TreeNode node{h, 0};
    const int64_t idx =
        shape.IsMaterialized(node) ? shape.PostorderIndex(node) : -1;
    if (idx < 0 || idx >= static_cast<int64_t>(view.snapshot->blocks.size())) {
      rep->Metric(name, 0.0, "s");
      continue;
    }
    std::unique_ptr<BlockKnnIndex> rebuilt;
    std::vector<double> build_s;
    for (int r = 0; r < 3; ++r) {
      const auto t = SteadyClock::now();
      rebuilt = BuildBlockIndex(index.params().block_kind, index.store(),
                                shape.NodeRange(node), index.params().build);
      build_s.push_back(Since(t));
    }
    rep->Metric(name, Median(build_s), "s");
    const BlockKnnIndex& live = *view.snapshot->blocks[static_cast<size_t>(idx)];
    SearchResult answers[2];
    const BlockKnnIndex* blocks[2] = {&live, rebuilt.get()};
    for (int b = 0; b < 2; ++b) {
      QueryContext ctx(probe.seed);
      TopKHeap heap(sp.k);
      blocks[b]->Search(index.store(), probe.vector, sp, nullptr,
                        ctx.searcher(), ctx.rng(), &heap, nullptr);
      answers[b] = heap.ExtractSorted();
    }
    if (live.MemoryBytes() != rebuilt->MemoryBytes() ||
        !SameAnswer(answers[0], answers[1])) {
      rep->Fail("replayed build of height " + std::to_string(h) +
                " differs from the live block");
    }
  }
}

void ReportLayerSpans(const LayerSpans& s, Report* rep) {
  const double n = static_cast<double>(std::max<size_t>(s.queries, 1));
  rep->Metric("graph.search_s", s.graph_s / n, "s");
  rep->Metric("graph.dist_evals", s.graph.distance_evaluations / n, "count");
  rep->Metric("graph.nodes_expanded", s.graph.nodes_expanded / n, "count");
  rep->Metric("graph.reject_ratio",
              Ratio(s.graph.pool_rejects, s.graph.distance_evaluations),
              "ratio");
  rep->Metric("graph.filter_hit_ratio",
              Ratio(s.graph.filter_hits, s.graph.nodes_expanded), "ratio");
  rep->Metric("index.exact_scan_s", s.exact_s / n, "s");
  rep->Metric("index.exact_rows", s.exact_rows / n, "count");
  rep->Metric("mbi.map_s", s.map_s / n, "s");
  rep->Metric("mbi.select_s", s.select_s / n, "s");
  rep->Metric("mbi.blocks_per_query", s.blocks / n, "count");
  rep->Metric("mbi.merge_s", s.merge_s / n, "s");
}

// `search_s`: total ShardedMbi::Search time of the same queries. Spans of a
// workload without shards stay empty and report zero work.
void ReportShardSpans(const ShardSpans& s, double search_s, Report* rep) {
  const double n = static_cast<double>(std::max<size_t>(s.queries, 1));
  rep->Metric("shard.probes_per_query", s.probes / n, "count");
  rep->Metric("shard.probe_s", s.probe_s / n, "s");
  rep->Metric("shard.merge_s", s.merge_s / n, "s");
  rep->Metric("shard.self_s",
              s.queries == 0 ? 0.0 : (search_s - s.probe_s - s.merge_s) / n,
              "s");
}

// Per-row Add timings, split into Adds that complete a leaf (and so run the
// merge cascade) and all others.
struct AddTimes {
  std::vector<double> cascade_s, other_us;

  void Report(mbi::perfbench::Report* rep) const {
    rep->Metric("mbi.cascade_s.p50", Median(cascade_s), "s");
    rep->Metric("mbi.cascade_s.max", Percentile(cascade_s, 1.0), "s");
    rep->Metric("mbi.add_us.p50", Median(other_us), "us");
  }
};

void ReportPersist(const std::vector<double>& checkpoint_s,
                   const PersistReading& delta, double user_bytes,
                   Report* rep) {
  rep->Metric("persist.checkpoint_s", Median(checkpoint_s), "s");
  rep->Metric("persist.write_amp", Ratio(delta.bytes, user_bytes), "ratio");
  rep->Metric("persist.segments_reused_ratio",
              Ratio(delta.reused, delta.reused + delta.written), "ratio");
}

// Host probes: fixed loops that call no library code. Run before and after a
// workload, they tell a slow phase of a shared host (busy cores, or a last-
// level cache thrashed by other tenants) apart from a slower program.

// Milliseconds for an L2-resident compute loop, median of 5.
double ComputeProbeMs() {
  std::vector<float> a(1 << 14, 1.0f), b(1 << 14, 2.0f);
  std::vector<double> reps;
  volatile float sink = 0.0f;
  for (int r = 0; r < 5; ++r) {
    float acc = 0.0f;
    const auto t = SteadyClock::now();
    for (int pass = 0; pass < 1000; ++pass) {
      for (size_t i = 0; i < a.size(); ++i) {
        const float d = a[i] - b[(i * 7) & (b.size() - 1)];
        acc += d * d;
      }
      a[static_cast<size_t>(pass) & (a.size() - 1)] += 1e-7f;
    }
    reps.push_back(Since(t));
    sink = sink + acc;
  }
  return Median(reps) * 1e3;
}

// Nanoseconds per dependent load over a 16 MiB random cycle (Sattolo's
// shuffle), the size of the workloads' indexes; median of 3.
double MemoryProbeNs() {
  std::vector<uint32_t> next(uint32_t{1} << 22);
  std::iota(next.begin(), next.end(), uint32_t{0});
  Rng rng(0x5eed);
  for (size_t i = next.size() - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextBounded(i)]);
  }
  constexpr size_t kLoads = 1 << 20;
  std::vector<double> reps;
  volatile uint32_t sink = 0;
  for (int r = 0; r < 3; ++r) {
    uint32_t at = 0;
    const auto t = SteadyClock::now();
    for (size_t i = 0; i < kLoads; ++i) at = next[at];
    reps.push_back(Since(t));
    sink = sink + at;
  }
  return Median(reps) / kLoads * 1e9;
}

std::string HostProbes() {
  return "{\"compute_ms\": " + Fmt(ComputeProbeMs()) +
         ", \"memory_ns\": " + Fmt(MemoryProbeNs()) + "}";
}

void ReportKernels(const std::vector<float>& flat, Report* rep) {
  rep->Metric("core.dist_ns.angular96", KernelNs(Metric::kAngular, 96, flat),
              "ns");
  rep->Metric("core.dist_ns.l2_128", KernelNs(Metric::kL2, 128, flat), "ns");
}

// ---------------------------------------------------------------------------
// End-to-end bookkeeping shared by the workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

// Set-up, ingest and recovery times are medians of their repetitions in
// the run. Queries run in passes of at least 1,000 executions, spread over
// the whole measured phase; each pass gives a rate (its executions over its
// time), a p50 and a p99 (over every execution in it, so at least 10 lie
// beyond p99), and the query metrics are the medians of these over the
// passes. The shared host swings by tens of percent over seconds, and a
// median over many passes is steadier than figures pooled over the run,
// which the slowest stretch of a run would dominate.
struct EndToEnd {
  struct Pass {
    std::vector<double> latencies;  // every query execution in the pass
    double busy_s = 0;              // time of the pass's queries
  };
  std::vector<double> setup_s, ingest_s, recover_s;
  std::vector<double> pass_qps, pass_p50_ms, pass_p99_ms;
  double rows = 0;  // rows per ingest_s sample
  double index_rows = 0;
  double recall = 0;
  double index_bytes = 0;

  void AddPass(const Pass& p) {
    pass_qps.push_back(
        Ratio(static_cast<double>(p.latencies.size()), p.busy_s));
    pass_p50_ms.push_back(Percentile(p.latencies, 0.50) * 1e3);
    pass_p99_ms.push_back(Percentile(p.latencies, 0.99) * 1e3);
  }

  void Report(mbi::perfbench::Report* rep) const {
    rep->Metric("setup_s", Median(setup_s), "s");
    rep->Metric("qps", Median(pass_qps), "1/s");
    rep->Metric("query_p50_ms", Median(pass_p50_ms), "ms");
    rep->Metric("query_p99_ms", Median(pass_p99_ms), "ms");
    rep->Metric("recall_at_10", recall, "ratio");
    rep->Metric("ingest_vps", Ratio(rows, Median(ingest_s)), "vectors/s");
    rep->Metric("recover_s", Median(recover_s), "s");
    rep->Metric("index_bytes_per_vector", Ratio(index_bytes, index_rows), "B");
    rep->Metric("ok_ratio",
                1.0 - Ratio(static_cast<double>(rep->failed),
                            static_cast<double>(rep->attempted)),
                "ratio");
  }
};

size_t IndexBytes(const MbiIndex& index) {
  const ReadView view = index.AcquireReadView();
  size_t bytes = 0;
  for (const auto& b : view.snapshot->blocks) bytes += b->MemoryBytes();
  return bytes;
}

void Fingerprint(const std::string& workload, const Options& opt,
                 const LayerSpans& pass, double recall,
                 const HistogramReading& nnd, double checkpoint_bytes,
                 double index_bytes, Report* rep) {
  const double n = static_cast<double>(std::max<size_t>(pass.queries, 1));
  rep->Print("workload", "\"" + workload + "\"");
  rep->Count("seed", static_cast<double>(opt.seed));
  rep->Count("queries", static_cast<double>(pass.queries));
  rep->Count("dist_evals", static_cast<double>(pass.all.distance_evaluations));
  rep->Count("dist_evals_per_query", pass.all.distance_evaluations / n);
  rep->Count("hops", static_cast<double>(pass.all.nodes_expanded));
  rep->Count("blocks", static_cast<double>(pass.blocks));
  rep->Count("blocks_per_query", pass.blocks / n);
  rep->Count("recall_at_10", recall);
  rep->Count("nndescent_iterations", nnd.sum);
  rep->Count("nndescent_builds", nnd.count);
  rep->Count("checkpoint_bytes", checkpoint_bytes);
  rep->Count("index_bytes", index_bytes);
}

// Recall floor below which a workload's answers count as broken.
constexpr double kRecallFloor = 0.90;

// Mean recall@10 of `answers` against exact BSBF answers over `rows`,
// computed outside any timed phase; fails the run below the floor.
double CheckedRecall(const SyntheticData& rows, Metric metric,
                     const std::vector<Query>& queries,
                     const std::vector<SearchResult>& answers, size_t k,
                     Report* rep) {
  VectorStore store(rows.dim, metric);
  const Status st = store.AppendBatch(rows.vectors.data(),
                                      rows.timestamps.data(), rows.size());
  rep->Op(st.ok() ? "" : "ground-truth store: " + st.ToString());
  double sum = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const SearchResult exact =
        BsbfIndex::Query(store, queries[i].vector, k, queries[i].window);
    sum += RecallAtK(answers[i], exact, k);
  }
  const double recall =
      queries.empty() ? 0.0 : sum / static_cast<double>(queries.size());
  if (!(recall >= kRecallFloor)) {
    rep->Fail("mean recall@10 " + Fmt(recall) + " below the floor " +
              Fmt(kRecallFloor));
  }
  return recall;
}

// Probe windows of several widths over the first `n` rows, used to compare
// a live and a recovered index.
std::vector<Query> RecoveryProbes(const std::vector<float>& vectors,
                                  size_t dim, int64_t n, uint64_t seed) {
  return MakeQueries(vectors, dim, n, {0.02, 0.1, 0.5, 1.0}, 8,
                     DeriveSeedStream(seed, "recovery-probes"));
}

std::string CkptDir(const Options& opt, const std::string& name) {
  return opt.work_dir + "/" + name;
}

MbiParams IndexParams(const DatasetSpec& spec, int64_t leaf_size) {
  MbiParams p;
  p.leaf_size = leaf_size;
  p.tau = spec.tau;
  p.build.degree = spec.degree;
  p.build.seed = spec.gen.seed * 77 + 1;
  p.num_threads = 1;
  return p;
}

SearchParams QueryParams(const DatasetSpec& spec) {
  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = spec.max_candidates;
  sp.num_entry_points = spec.num_entry_points;
  sp.epsilon = 1.1f;
  return sp;
}

double UserBytes(double rows, size_t dim) {
  return rows * static_cast<double>(dim * sizeof(float) + sizeof(Timestamp));
}

// Adds `rows[begin, end)` one row at a time; `leaf_end(i)` says whether row
// i completes a leaf of the index it lands in. Returns the time in Add.
template <typename AddFn, typename LeafEnd>
double AddRows(const SyntheticData& rows, int64_t begin, int64_t end,
               const AddFn& add, const LeafEnd& leaf_end, AddTimes* times,
               Report* rep) {
  double busy = 0;
  for (int64_t i = begin; i < end; ++i) {
    const auto t = SteadyClock::now();
    const Status st = add(rows.vector(i), rows.timestamps[i]);
    const double dt = Since(t);
    busy += dt;
    if (times != nullptr) {
      if (leaf_end(i)) {
        times->cascade_s.push_back(dt);
      } else {
        times->other_us.push_back(dt * 1e6);
      }
    }
    rep->Op(st.ok() ? "" : "Add failed: " + st.ToString());
  }
  return busy;
}

// ---------------------------------------------------------------------------
// Query workloads: an index built in set-up, a checked pass, then a closed
// loop of queries on indexes recovered from a checkpoint of it (or, traced,
// the outside-in replay of each query). Target is the index they drive.

class Target {
 public:
  virtual ~Target() = default;
  // Builds a fresh index of `rows` by per-row Add; returns the time in Add.
  virtual double Build(const SyntheticData& rows, AddTimes* times,
                       Report* rep) = 0;
  // The library's public query call.
  virtual SearchResult Search(const Query& q) = 0;
  // The same query replayed outside-in into the spans; returns the
  // library's answer and fails the run when the replay drifts from it.
  virtual SearchResult Traced(const Query& q, bool replay_first,
                              LayerSpans* layers, ShardSpans* shards,
                              Report* rep) = 0;
  // DistanceFunction of `q` against the stored row of global id `id`.
  virtual float Recompute(const Query& q, VectorId id) const = 0;
  virtual Status Checkpoint(const std::string& dir) = 0;
  // Replaces the live index by the one recovered from `dir`.
  virtual Status Recover(const std::string& dir) = 0;
  virtual double IndexBytes() const = 0;
  // The index whose block builds the traced run replays.
  virtual std::shared_ptr<const MbiIndex> FirstIndex() const = 0;
};

class MbiTarget : public Target {
 public:
  MbiTarget(const DatasetSpec& spec, const MbiParams& params)
      : spec_(spec), params_(params), sp_(QueryParams(spec)) {}

  double Build(const SyntheticData& rows, AddTimes* times,
               Report* rep) override {
    index_ = std::make_shared<MbiIndex>(spec_.gen.dim, spec_.metric, params_);
    MbiIndex* fresh = index_.get();
    const int64_t leaf = params_.leaf_size;
    return AddRows(
        rows, 0, static_cast<int64_t>(rows.size()),
        [&](const float* v, Timestamp ts) { return fresh->Add(v, ts); },
        [&](int64_t i) { return (i + 1) % leaf == 0; }, times, rep);
  }
  SearchResult Search(const Query& q) override {
    return SearchSeeded(*index_, q, sp_, &ctx_);
  }
  SearchResult Traced(const Query& q, bool replay_first, LayerSpans* layers,
                      ShardSpans*, Report* rep) override {
    ++layers->queries;
    return SearchAndReplay(*index_, q, sp_, &ctx_, layers, replay_first, rep);
  }
  float Recompute(const Query& q, VectorId id) const override {
    const VectorStore& store = index_->store();
    return store.distance()(q.vector, store.GetVector(id));
  }
  Status Checkpoint(const std::string& dir) override {
    return index_->Checkpoint(dir);
  }
  Status Recover(const std::string& dir) override {
    auto r = MbiIndex::Recover(dir);
    if (!r.ok()) return r.status();
    index_ = std::move(r).value();
    return Status::Ok();
  }
  double IndexBytes() const override {
    return static_cast<double>(perfbench::IndexBytes(*index_));
  }
  std::shared_ptr<const MbiIndex> FirstIndex() const override { return index_; }

 private:
  DatasetSpec spec_;
  MbiParams params_;
  SearchParams sp_;
  QueryContext ctx_;
  std::shared_ptr<MbiIndex> index_;
};

class ShardedTarget : public Target {
 public:
  ShardedTarget(const DatasetSpec& spec, const shard::ShardedMbiParams& params)
      : spec_(spec), params_(params), sp_(QueryParams(spec)) {}

  double Build(const SyntheticData& rows, AddTimes* times,
               Report* rep) override {
    sharded_ = std::make_unique<shard::ShardedMbi>(spec_.gen.dim, spec_.metric,
                                                   params_);
    shard::ShardedMbi* fresh = sharded_.get();
    const int64_t span = params_.shard_span;
    const int64_t leaf = params_.shard.leaf_size;
    return AddRows(
        rows, 0, static_cast<int64_t>(rows.size()),
        [&](const float* v, Timestamp ts) { return fresh->Add(v, ts); },
        [&](int64_t i) { return (i % span + 1) % leaf == 0; }, times, rep);
  }
  // A failed query returns an empty answer that no check accepts.
  SearchResult Search(const Query& q) override {
    *ctx_.rng() = Rng(q.seed);
    auto r = sharded_->Search(q.vector, q.window, sp_, &ctx_);
    if (!r.ok()) {
      SearchResult failed;
      failed.completion = Completion::kInvalidArgument;
      return failed;
    }
    return std::move(r).value();
  }
  SearchResult Traced(const Query& q, bool replay_first, LayerSpans* layers,
                      ShardSpans* shards, Report* rep) override {
    ++layers->queries;
    return ReplaySharded(*sharded_, q, sp_, &ctx_, replay_first, shards, layers,
                         rep);
  }
  // Shard i owns global ids [i * span, (i + 1) * span).
  float Recompute(const Query& q, VectorId id) const override {
    const int64_t span = params_.shard_span;
    const auto shard = sharded_->shard(static_cast<size_t>(id / span));
    if (!shard.ok()) return NAN;
    const VectorStore& store = shard.value()->store();
    return store.distance()(q.vector, store.GetVector(id % span));
  }
  Status Checkpoint(const std::string& dir) override {
    std::filesystem::create_directories(dir);
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      const Status st = sharded_->CheckpointShard(i, ShardDir(dir, i));
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }
  Status Recover(const std::string& dir) override {
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      const Status st = sharded_->RecoverShard(i, ShardDir(dir, i));
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }
  double IndexBytes() const override {
    double bytes = 0;
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      const auto shard = sharded_->shard(i);
      if (shard.ok()) bytes += perfbench::IndexBytes(*shard.value());
    }
    return bytes;
  }
  std::shared_ptr<const MbiIndex> FirstIndex() const override {
    auto shard = sharded_->shard(0);
    return shard.ok() ? shard.value() : nullptr;
  }
  size_t num_shards() const { return sharded_->num_shards(); }

 private:
  static std::string ShardDir(const std::string& dir, size_t i) {
    return dir + "/shard-" + std::to_string(i);
  }

  DatasetSpec spec_;
  shard::ShardedMbiParams params_;
  SearchParams sp_;
  QueryContext ctx_;
  std::unique_ptr<shard::ShardedMbi> sharded_;
};

struct QueryWorkload {
  std::string name;
  std::string dataset;
  int64_t rows = 0;
  std::vector<double> fractions;
  size_t per_fraction = 0;  // queries per fraction in one pass
  size_t setups = 0;        // setup_s is their median
};

// Closed loop, one client: one pass over the first `count` queries. Every
// answer must equal the checked answer.
EndToEnd::Pass RunPass(const std::vector<Query>& queries, size_t count,
                       const std::vector<SearchResult>& reference,
                       Target* target, Report* rep) {
  EndToEnd::Pass pass;
  const auto start = SteadyClock::now();
  for (size_t i = 0; i < std::min(count, queries.size()); ++i) {
    const auto t = SteadyClock::now();
    const SearchResult r = target->Search(queries[i]);
    pass.latencies.push_back(Since(t));
    rep->Op(SameAnswer(r, reference[i]) ? "" : "answer changed between runs");
  }
  pass.busy_s = Since(start);
  return pass;
}

// Passes of the measured phase that follow each set-up, at least.
constexpr size_t kMinPassesPerSetup = 2;
// Untimed queries after each recovery. The first ~100 queries on a freshly
// recovered index run on cold caches and held nearly twice their share of a
// pass's ten slowest queries.
constexpr size_t kWarmQueries = 100;

void RunQueryWorkload(const Options& opt, const QueryWorkload& w,
                      Target* target, Report* rep) {
  const DatasetSpec spec = FindDatasetSpec(w.dataset);
  const size_t dim = spec.gen.dim;
  const SearchParams sp = QueryParams(spec);

  EndToEnd e2e;
  e2e.rows = static_cast<double>(w.rows);
  e2e.index_rows = static_cast<double>(w.rows);
  const SyntheticParams gen = Generator(w.dataset);
  const std::vector<float> query_vectors = QueryVectors(
      w.dataset, w.fractions.size() * w.per_fraction, opt.seed);
  const std::vector<Query> queries = MakeQueries(
      query_vectors, dim, w.rows, w.fractions, w.per_fraction, opt.seed);
  SyntheticData rows;
  HistogramReading nnd;
  AddTimes adds;
  LayerSpans pass;
  ShardSpans pass_shards;
  std::vector<SearchResult> reference;
  std::vector<double> checkpoint_s;
  PersistReading persisted;

  const std::string dir = CkptDir(opt, "checkpoint");
  auto checkpoint = [&] {
    std::filesystem::remove_all(dir);
    obs::MetricRegistry::Default().ResetAll();
    const auto t = SteadyClock::now();
    const Status st = target->Checkpoint(dir);
    checkpoint_s.push_back(Since(t));
    rep->Op(st.ok() ? "" : "Checkpoint failed: " + st.ToString());
    persisted = PersistCounters();
  };
  // Replaces the live index by the one recovered from the checkpoint, then
  // warms it up and runs a pass on it: every answer of the recovered index
  // must equal the live index's checked answer.
  auto recover_and_pass = [&](bool timed) {
    const auto t = SteadyClock::now();
    const Status st = target->Recover(dir);
    const double dt = Since(t);
    rep->Op(st.ok() ? "" : "Recover failed: " + st.ToString());
    RunPass(queries, kWarmQueries, reference, target, rep);
    const EndToEnd::Pass p =
        RunPass(queries, queries.size(), reference, target, rep);
    if (timed) {
      e2e.recover_s.push_back(dt);
      e2e.AddPass(p);
    }
  };

  // Every set-up builds the same index afresh. It is followed by an equal
  // share of the measured phase: a warm-up pass, a checkpoint, then
  // recoveries from it, each followed by warm-up queries and a timed pass on
  // the recovered index. So the samples of every metric spread over the
  // whole run. The
  // traced run has one set-up and recovers after its traced loop.
  const size_t setups = opt.trace ? 1 : w.setups;
  for (size_t s = 0; s < setups; ++s) {
    obs::MetricRegistry::Default().ResetAll();
    const auto t = SteadyClock::now();
    rows = GenerateSynthetic(gen, static_cast<size_t>(w.rows));
    e2e.ingest_s.push_back(
        target->Build(rows, opt.trace ? &adds : nullptr, rep));
    e2e.setup_s.push_back(Since(t));
    if (s == 0) {
      nnd = NnDescentIterations();
      // Checked pass, untimed: replay parity, answer validity and ground
      // truth; its counters are the fingerprint.
      for (size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[i];
        reference.push_back(target->Search(q));
        if (!SameAnswer(reference.back(), target->Traced(q, i % 2 == 1, &pass,
                                                         &pass_shards, rep))) {
          rep->Fail(
              "outside-in replay does not reproduce the library's answer");
        }
        rep->Op(CheckAnswer(
            reference.back(), WindowIds(q.window), sp.k,
            [&](VectorId id) { return target->Recompute(q, id); }));
      }
      e2e.recall =
          CheckedRecall(rows, spec.metric, queries, reference, sp.k, rep);
      e2e.index_bytes = target->IndexBytes();
    }
    if (!opt.trace) {
      RunPass(queries, queries.size(), reference, target, rep);  // warm-up
      const auto segment_start = SteadyClock::now();
      checkpoint();
      for (size_t n = 0; n < kMinPassesPerSetup ||
                         Since(segment_start) <
                             opt.seconds / static_cast<double>(setups);
           ++n) {
        recover_and_pass(true);
      }
    }
  }

  LayerSpans spans;
  ShardSpans shard_spans;
  std::vector<double> real_s, replay_s;
  double search_s = 0;
  if (opt.trace) {
    ReportKernels(rows.vectors, rep);
    // Each query runs through the library and through the traced replay,
    // alternating which goes first.
    const auto start = SteadyClock::now();
    for (size_t i = 0; Since(start) < opt.seconds; ++i) {
      const size_t qi = i % queries.size();
      const LayerSpans before = spans;
      SearchResult real, traced;
      for (int step = 0; step < 2; ++step) {
        if ((step == 0) == (i % 2 == 1)) {
          traced = target->Traced(queries[qi], i % 4 < 2, &spans,
                                  &shard_spans, rep);
        } else {
          const auto t = SteadyClock::now();
          real = target->Search(queries[qi]);
          search_s += Since(t);
        }
      }
      if (!SameAnswer(real, traced)) {
        rep->Fail("outside-in replay does not reproduce the library's answer");
      }
      rep->Op(SameAnswer(real, reference[qi]) ? ""
                                              : "answer changed between runs");
      real_s.push_back(spans.real_s - before.real_s);
      replay_s.push_back(spans.replay_s - before.replay_s);
    }
    checkpoint();
    recover_and_pass(false);
  }
  Fingerprint(w.name, opt, pass, e2e.recall, nnd, persisted.bytes,
              e2e.index_bytes, rep);

  if (!opt.trace) {
    e2e.Report(rep);
    return;
  }
  ReportLayerSpans(spans, rep);
  BuildReplay(*target->FirstIndex(), queries[0], sp, rep);
  rep->Metric("graph.nndescent_iters", Ratio(nnd.sum, nnd.count), "count");
  adds.Report(rep);
  ReportPersist(checkpoint_s, persisted,
                UserBytes(static_cast<double>(w.rows), dim), rep);
  ReportShardSpans(shard_spans, search_s, rep);
  rep->Metric("obs.trace_overhead", Median(replay_s) / Median(real_s),
              "ratio");
}

// ---------------------------------------------------------------------------
// Workload: tknn-angular
//
// deep-sim (96-d angular, the DEEP1B stand-in) built in setup by per-row
// Add into 16 full leaves of 512 with no tail, then a closed loop of TkNN
// queries over Fig. 5's window fractions at fixed epsilon.

void RunTknnAngular(const Options& opt, Report* rep) {
  const DatasetSpec spec = FindDatasetSpec("deep-sim");
  constexpr int64_t kLeaf = 512;
  QueryWorkload w;
  w.name = "tknn-angular";
  w.dataset = "deep-sim";
  w.rows = 16 * kLeaf;
  w.fractions = {0.01, 0.05, 0.10, 0.30, 0.50, 0.80, 0.95};
  w.per_fraction = 144;  // 1,008 queries a pass
  w.setups = 2;  // a set-up takes 6-12 s
  MbiTarget target(spec, IndexParams(spec, kLeaf));
  RunQueryWorkload(opt, w, &target, rep);
}

// ---------------------------------------------------------------------------
// Workload: sharded-l2
//
// sift-sim (128-d L2) split into 4 time shards behind ShardedMbi with serial
// fan-out. Each shard holds 4 full leaves of 512 plus 64 tail rows, so probes
// exact-scan a tail too. Windows cover 20-100% of the data, so most queries
// probe two or more shards.

void RunShardedL2(const Options& opt, Report* rep) {
  const DatasetSpec spec = FindDatasetSpec("sift-sim");
  constexpr int64_t kLeaf = 512;
  constexpr size_t kShards = 4;
  shard::ShardedMbiParams params;
  params.shard_span = 4 * kLeaf + 64;
  params.shard = IndexParams(spec, kLeaf);
  params.num_search_threads = 0;  // serial fan-out on the caller's thread
  QueryWorkload w;
  w.name = "sharded-l2";
  w.dataset = "sift-sim";
  w.rows = static_cast<int64_t>(kShards) * params.shard_span;
  w.fractions = {0.2, 0.4, 0.6, 0.8, 1.0};
  w.per_fraction = 200;  // 1,000 queries a pass
  w.setups = 3;
  ShardedTarget target(spec, params);
  RunQueryWorkload(opt, w, &target, rep);
  if (target.num_shards() != kShards) {
    rep->Fail("expected " + std::to_string(kShards) + " shards");
  }
}

// ---------------------------------------------------------------------------
// Workload: ingest-l2
//
// sift-sim (128-d L2), leaves of 512. Setup builds an 8-leaf prefix; the
// measured phase feeds 8 more leaves plus 96 rows by per-row Add, with a
// query on the most recent ~5% of committed rows after every row and a
// checkpoint at 8 and 10 leaves and 37 rows into the 13th. Then a crash:
// Recover from the last checkpoint, which replays its 37-row tail log, and
// re-feed the 2,107 rows lost after it (the rest of the 13th leaf, 3 more
// leaves and 96 rows, with the 16-leaf root merge). The first round is the checked one; later rounds are timed, until
// the run's time is up.

void RunIngestL2(const Options& opt, Report* rep) {
  const DatasetSpec spec = FindDatasetSpec("sift-sim");
  const size_t dim = spec.gen.dim;
  constexpr int64_t kLeaf = 512;
  constexpr int64_t kPrefix = 8 * kLeaf;
  constexpr int64_t kRows = 16 * kLeaf + 96;
  constexpr double kRecentFraction = 0.05;
  constexpr size_t kQueryVectors = 64;
  constexpr size_t kMinTimedRounds = 3;
  // A round's queries form 4 passes; a pass's time is the time in its
  // queries, since they run between writes.
  constexpr size_t kQueriesPerPass = (kRows - kPrefix) / 4;
  static_assert((kRows - kPrefix) % 4 == 0);
  const std::vector<int64_t> kCheckpointAt = {8 * kLeaf, 10 * kLeaf,
                                              12 * kLeaf + 37};
  const MbiParams params = IndexParams(spec, kLeaf);
  const SearchParams sp = QueryParams(spec);
  const std::string dir = CkptDir(opt, "ingest");

  EndToEnd e2e;
  e2e.rows = kRows - kPrefix;
  e2e.index_rows = kRows;
  std::vector<double> checkpoint_s;
  std::vector<SearchResult> reference;
  std::vector<Query> checked_queries;
  LayerSpans pass;
  AddTimes adds;
  HistogramReading nnd;
  PersistReading persisted;
  std::shared_ptr<MbiIndex> index;
  SyntheticData rows;
  const std::vector<float> query_vectors =
      QueryVectors("sift-sim", kQueryVectors, opt.seed);
  QueryContext ctx;
  // The measured phase starts after the checked round.
  auto timed_start = SteadyClock::now();
  for (size_t round = 0;; ++round) {
    const bool checked = round == 0;
    obs::MetricRegistry::Default().ResetAll();
    std::filesystem::remove_all(dir);

    auto t = SteadyClock::now();
    const SyntheticParams gen = Generator("sift-sim");
    rows = GenerateSynthetic(gen, kRows);
    index = std::make_shared<MbiIndex>(dim, spec.metric, params);
    MbiIndex* live = index.get();
    auto add = [&](const float* v, Timestamp ts) { return live->Add(v, ts); };
    auto leaf_end = [&](int64_t i) { return (i + 1) % kLeaf == 0; };
    AddTimes* timed_adds = opt.trace && checked ? &adds : nullptr;
    AddRows(rows, 0, kPrefix, add, leaf_end, timed_adds, rep);
    if (!checked) e2e.setup_s.push_back(Since(t));

    // Measured ingest: time in Adds, queries and checkpoints only; the
    // checks of the checked round are not counted.
    double busy = 0;
    int64_t checkpointed = 0;
    size_t qn = 0;
    EndToEnd::Pass round_pass;
    for (int64_t i = kPrefix; i <= kRows; ++i) {
      if (std::count(kCheckpointAt.begin(), kCheckpointAt.end(), i) > 0) {
        t = SteadyClock::now();
        const Status ck = live->Checkpoint(dir);
        const double dt = Since(t);
        busy += dt;
        if (checked) checkpoint_s.push_back(dt);
        checkpointed = i;
        rep->Op(ck.ok() ? "" : "Checkpoint failed: " + ck.ToString());
      }
      if (i > kPrefix) {
        const int64_t w = std::max<int64_t>(
            static_cast<int64_t>(sp.k),
            std::llround(kRecentFraction * static_cast<double>(i)));
        Query q;
        q.vector = query_vectors.data() + (qn % kQueryVectors) * dim;
        q.window = TimeWindow{i - w, i};
        q.seed = DeriveSeedStream(opt.seed,
                                  "ingest-query/" + std::to_string(qn));
        if (checked) {
          const double real_before = pass.real_s;
          ++pass.queries;
          const SearchResult r = SearchAndReplay(*live, q, sp, &ctx, &pass,
                                                 qn % 2 == 1, rep);
          busy += pass.real_s - real_before;
          const VectorStore& store = live->store();
          rep->Op(CheckAnswer(r, WindowIds(q.window), sp.k, [&](VectorId id) {
            return store.distance()(q.vector, store.GetVector(id));
          }));
          checked_queries.push_back(q);
          reference.push_back(r);
        } else {
          t = SteadyClock::now();
          const SearchResult r = SearchSeeded(*live, q, sp, &ctx);
          const double dt = Since(t);
          busy += dt;
          round_pass.latencies.push_back(dt);
          round_pass.busy_s += dt;
          if (round_pass.latencies.size() == kQueriesPerPass) {
            e2e.AddPass(round_pass);
            round_pass = EndToEnd::Pass{};
          }
          rep->Op(SameAnswer(r, reference[qn]) ? ""
                                                : "answer changed between runs");
        }
        ++qn;
      }
      if (i < kRows) {
        busy += AddRows(rows, i, i + 1, add, leaf_end, timed_adds, rep);
      }
    }
    if (!checked) e2e.ingest_s.push_back(busy);

    // Crash: Recover replays the last checkpoint's tail log; the rows after
    // it are lost and re-fed.
    t = SteadyClock::now();
    auto res = MbiIndex::Recover(dir);
    std::unique_ptr<MbiIndex> recovered;
    size_t recovered_rows = 0;
    if (res.ok()) {
      recovered = std::move(res).value();
      recovered_rows = recovered->size();
      const Status st = recovered->AddBatch(
          rows.vector(checkpointed), rows.timestamps.data() + checkpointed,
          static_cast<size_t>(kRows - checkpointed));
      rep->Op(st.ok() ? "" : "re-feeding the lost rows failed: " +
                                 st.ToString());
    }
    const double recover_dt = Since(t);
    if (!checked) e2e.recover_s.push_back(recover_dt);
    rep->Op(res.ok() ? "" : "Recover failed: " + res.status().ToString());
    if (recovered != nullptr) {
      if (recovered_rows != static_cast<size_t>(checkpointed)) {
        rep->Fail("Recover restored " + std::to_string(recovered_rows) +
                  " rows, not the " + std::to_string(checkpointed) +
                  " checkpointed");
      }
      QueryContext live_ctx, recovered_ctx;
      for (const Query& q :
           RecoveryProbes(query_vectors, dim, kRows, opt.seed)) {
        if (!SameAnswer(SearchSeeded(*live, q, sp, &live_ctx),
                        SearchSeeded(*recovered, q, sp, &recovered_ctx))) {
          rep->Fail("recovered index answers differently from the live index");
          break;
        }
      }
    }

    if (checked) {
      nnd = NnDescentIterations();
      persisted = PersistCounters();
      e2e.recall = CheckedRecall(rows, spec.metric, checked_queries, reference,
                                 sp.k, rep);
      e2e.index_bytes = static_cast<double>(IndexBytes(*live));
      Fingerprint("ingest-l2", opt, pass, e2e.recall, nnd, persisted.bytes,
                  e2e.index_bytes, rep);
      timed_start = SteadyClock::now();
    }
    if (opt.trace ||
        (round >= kMinTimedRounds && Since(timed_start) >= opt.seconds)) {
      break;
    }
  }
  std::filesystem::remove_all(dir);

  if (!opt.trace) {
    e2e.Report(rep);
    return;
  }
  ReportKernels(rows.vectors, rep);
  ReportLayerSpans(pass, rep);
  BuildReplay(*index, checked_queries[0], sp, rep);
  rep->Metric("graph.nndescent_iters", Ratio(nnd.sum, nnd.count), "count");
  adds.Report(rep);
  ReportPersist(checkpoint_s, persisted,
                UserBytes(static_cast<double>(kRows), dim), rep);
  ReportShardSpans(ShardSpans{}, 0.0, rep);
  rep->Metric("obs.trace_overhead", pass.replay_s / pass.real_s, "ratio");
}

// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintReport(const Report& rep) {
  std::string fp = "fingerprint {";
  for (size_t i = 0; i < rep.fingerprint.size(); ++i) {
    fp += (i ? ", " : "") + JsonString(rep.fingerprint[i].first) + ": " +
          rep.fingerprint[i].second;
  }
  std::printf("%s}\n", fp.c_str());
  std::string out = std::string("result {\"correct\": ") +
                    (rep.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& [name, value_unit] = rep.metrics[i];
    out += (i ? ", " : "") + JsonString(name) + ": {\"value\": " +
           Fmt(value_unit.first) + ", \"unit\": " +
           JsonString(value_unit.second) + "}";
  }
  std::printf("%s}}\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: mbi_perfbench --workload "
               "<tknn-angular|ingest-l2|sharded-l2> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace
}  // namespace mbi::perfbench

int main(int argc, char** argv) {
  using namespace mbi::perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || !(opt.seconds > 0)) {
    return Usage();
  }
  void (*run)(const Options&, Report*) = nullptr;
  if (opt.workload == "tknn-angular") run = RunTknnAngular;
  if (opt.workload == "ingest-l2") run = RunIngestL2;
  if (opt.workload == "sharded-l2") run = RunShardedL2;
  if (run == nullptr) return Usage();

  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  Report rep;
  const std::string probes_before = HostProbes();
  run(opt, &rep);
  const std::string probes_after = HostProbes();
  std::filesystem::remove_all(opt.work_dir);
  std::printf("host_probe {\"before\": %s, \"after\": %s}\n",
              probes_before.c_str(), probes_after.c_str());
  PrintReport(rep);
  return 0;
}
