// Observability layer: histogram bucket/percentile math, counter and
// histogram thread-safety under ThreadPool hammering, registry exposition
// (Prometheus text + JSON), the QueryTrace EXPLAIN round-trip on a known
// small index (Lemma 4.1 visible in the trace), and the query metrics derived
// from the per-query record.

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "baseline/sf_index.h"
#include "data/synthetic.h"
#include "mbi/mbi_index.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JsonWriter;
using obs::MetricRegistry;

// Structural JSON validity: every brace/bracket balances and strings close.
// Not a full parser, but catches every malformed-writer bug we care about.
bool JsonBalanced(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ThreadSafetyUnderThreadPoolHammer) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kPerTask = 10000;
  Counter c;
  ThreadPool pool(kWorkers);
  for (size_t t = 0; t < 4 * kWorkers; ++t) {
    pool.Submit([&c] {
      for (size_t i = 0; i < kPerTask; ++i) c.Increment();
    });
  }
  pool.Wait();
  EXPECT_EQ(c.Value(), 4 * kWorkers * kPerTask);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BucketAssignment) {
  // Buckets: (-inf,1], (1,2], (2,3], overflow (3,inf).
  Histogram h(Histogram::LinearBounds(1.0, 1.0, 3));
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (upper bound inclusive)
  h.Observe(1.001); // bucket 1
  h.Observe(3.0);   // bucket 2
  h.Observe(99.0);  // overflow
  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.001 + 3.0 + 99.0);
  EXPECT_EQ(h.CumulativeCount(0), 2u);
  EXPECT_EQ(h.CumulativeCount(2), 4u);
}

TEST(HistogramTest, PercentileInterpolation) {
  Histogram h(Histogram::LinearBounds(10.0, 10.0, 10));  // 10,20,...,100
  // 100 observations uniform over (0, 100]: one per unit.
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  // Every bucket holds 10 observations; interpolation is exact to 1 unit.
  EXPECT_NEAR(h.Percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.Percentile(0.90), 90.0, 1.0);
  EXPECT_NEAR(h.Percentile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.Percentile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.Percentile(1.0), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
}

TEST(HistogramTest, PercentileEmptyAndOverflow) {
  Histogram h(Histogram::LinearBounds(1.0, 1.0, 2));
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);  // no observations
  h.Observe(100.0);                          // all mass in overflow
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 2.0);  // reports last finite bound
}

TEST(HistogramTest, ExponentialBounds) {
  const std::vector<double> b = Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

TEST(HistogramTest, ThreadSafetyUnderThreadPoolHammer) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kPerTask = 5000;
  Histogram h(Histogram::LinearBounds(1.0, 1.0, 8));
  ThreadPool pool(kWorkers);
  for (size_t t = 0; t < 2 * kWorkers; ++t) {
    pool.Submit([&h, t] {
      for (size_t i = 0; i < kPerTask; ++i) {
        h.Observe(static_cast<double>(t % 8));
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(h.Count(), 2 * kWorkers * kPerTask);
  uint64_t total = 0;
  for (uint64_t c : h.BucketCounts()) total += c;
  EXPECT_EQ(total, h.Count());
}

TEST(MetricRegistryTest, StablePointersAndReset) {
  MetricRegistry reg;
  Counter* c1 = reg.GetCounter("ops_total", "help text");
  Counter* c2 = reg.GetCounter("ops_total");
  EXPECT_EQ(c1, c2);
  c1->Increment(7);

  Histogram* h = reg.GetHistogram("lat", Histogram::LinearBounds(1, 1, 3));
  h->Observe(2.0);
  Gauge* g = reg.GetGauge("size");
  g->Set(3.0);

  reg.ResetAll();
  EXPECT_EQ(c1->Value(), 0u);       // same pointer, zeroed in place
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(reg.GetCounter("ops_total"), c1);
}

TEST(MetricRegistryTest, PrometheusExposition) {
  MetricRegistry reg;
  reg.GetCounter("requests_total", "served requests")->Increment(3);
  // A reader that looks a counter up by name first must not hide the help
  // text its owner registers later.
  reg.GetCounter("reads_total");
  reg.GetCounter("reads_total", "served reads");
  reg.GetGauge("temperature")->Set(21.5);
  Histogram* h =
      reg.GetHistogram("latency_seconds", Histogram::LinearBounds(1, 1, 2));
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(9.0);

  const std::string text = obs::PrometheusText(reg);
  EXPECT_NE(text.find("# HELP requests_total served requests"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP reads_total served reads"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE temperature gauge"), std::string::npos);
  EXPECT_NE(text.find("temperature 21.5"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 3"), std::string::npos);
}

TEST(MetricRegistryTest, JsonExposition) {
  MetricRegistry reg;
  reg.GetCounter("a_total")->Increment(5);
  reg.GetGauge("b")->Set(1.25);
  reg.GetHistogram("c", Histogram::LinearBounds(1, 1, 2))->Observe(1.0);

  const std::string json = obs::RegistryJson(reg);
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"a_total\":5"), std::string::npos);
  EXPECT_NE(json.find("\"b\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(JsonWriterTest, EscapingAndStructure) {
  JsonWriter w;
  w.BeginObject();
  w.Key("text");
  w.String("line\nwith \"quotes\" and \\ backslash");
  w.Key("nan");
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Key("list");
  w.BeginArray();
  w.Int(-3);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  const std::string json = w.TakeString();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(json.find("[-3,true,null]"), std::string::npos);
}

// --- QueryTrace integration on a known small index ------------------------

class QueryTraceTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 8;
  static constexpr int64_t kLeaf = 16;
  static constexpr size_t kN = 256;  // 16 full leaves -> complete tree

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.num_clusters = 8;
    gen.seed = 7;
    data_ = GenerateSynthetic(gen, kN);

    MbiParams p;
    p.leaf_size = kLeaf;
    p.tau = 0.5;
    p.build.degree = 8;
    p.build.exact_threshold = 1 << 20;  // exact graphs: deterministic
    index_ = std::make_unique<MbiIndex>(kDim, Metric::kL2, p);
    ASSERT_TRUE(index_
                    ->AddBatch(data_.vectors.data(), data_.timestamps.data(),
                               kN)
                    .ok());
  }

  SyntheticData data_;
  std::unique_ptr<MbiIndex> index_;
};

TEST_F(QueryTraceTest, TracedQueryObeysLemma41AndRoundTrips) {
  QueryContext ctx(123);
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 32;

  // Mid-range window over a complete tree; tau = 0.5 -> Lemma 4.1 bound.
  const TimeWindow window{data_.timestamps[40], data_.timestamps[200]};
  MbiQueryStats stats;
  obs::QueryTrace trace;
  const SearchResult result = index_->Search(
      data_.vector(0), window, sp, &ctx, {.stats = &stats, .trace = &trace});

  ASSERT_FALSE(result.empty());
  EXPECT_LE(trace.blocks.size(), 2u);  // Lemma 4.1 at tau <= 0.5
  EXPECT_EQ(trace.blocks.size(), stats.blocks_searched());
  EXPECT_GT(stats.search.distance_evaluations, 0u);

  // The trace's totals are the query's record, and its per-block counters
  // sum to it.
  EXPECT_EQ(trace.totals, stats);
  SearchStats total;
  size_t graph_blocks = 0;
  for (const obs::BlockTrace& b : trace.blocks) {
    total += b.stats;
    graph_blocks += b.used_graph ? 1 : 0;
  }
  EXPECT_EQ(total, stats.search);
  EXPECT_EQ(graph_blocks, stats.graph_blocks);
  EXPECT_EQ(trace.results_returned, result.size());

  // Selection trace: the visited path exists and every selected block
  // carries a valid overlap ratio.
  EXPECT_FALSE(trace.selection.empty());
  for (const obs::BlockTrace& b : trace.blocks) {
    EXPECT_GT(b.overlap_ratio, 0.0);
    EXPECT_LE(b.overlap_ratio, 1.0);
    EXPECT_GT(b.stats.distance_evaluations, 0u);
    EXPECT_FALSE(b.range.Empty());
  }

  // Human rendering mentions the searched blocks; JSON is structurally
  // valid and carries the fields a dashboard would read.
  const std::string text = trace.ToString();
  EXPECT_NE(text.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(text.find("block selection"), std::string::npos);
  const std::string json = trace.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"blocks_searched\":"), std::string::npos);
  EXPECT_NE(json.find("\"overlap_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"distance_evaluations\":"), std::string::npos);
  EXPECT_NE(json.find("\"decision\":"), std::string::npos);
}

TEST_F(QueryTraceTest, ExplainMatchesUntracedSearch) {
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 32;
  const TimeWindow window{data_.timestamps[0], data_.timestamps[128]};

  // The same query with and without a trace, from equally seeded contexts.
  QueryContext traced_ctx(123), plain_ctx(123);
  MbiQueryStats traced_stats, plain_stats;
  obs::QueryTrace trace;
  const SearchResult traced =
      index_->Search(data_.vector(1), window, sp, &traced_ctx,
                     {.stats = &traced_stats, .trace = &trace});
  const SearchResult plain = index_->Search(
      data_.vector(1), window, sp, &plain_ctx, {.stats = &plain_stats});

  // Tracing changes nothing: same ids, same distance bits, same record.
  ASSERT_FALSE(plain.empty());
  ASSERT_EQ(traced.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(traced[i].id, plain[i].id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(traced[i].distance),
              std::bit_cast<uint32_t>(plain[i].distance))
        << "rank " << i;
  }
  EXPECT_EQ(traced.completion, plain.completion);
  EXPECT_EQ(traced_stats, plain_stats);
  EXPECT_EQ(trace.totals, plain_stats);

  EXPECT_FALSE(trace.blocks.empty());
  EXPECT_LE(trace.blocks.size(), 2u);
  EXPECT_EQ(trace.results_returned, plain.size());
  EXPECT_EQ(trace.tau, index_->params().tau);

  // The trace's block set equals what selection reports for its id range.
  const std::vector<SelectedBlock> sel = index_->SelectSearchBlocksForRange(
      trace.id_range, index_->params().tau);
  ASSERT_EQ(sel.size(), trace.blocks.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    EXPECT_EQ(sel[i].node, trace.blocks[i].node);
    EXPECT_DOUBLE_EQ(sel[i].overlap_ratio, trace.blocks[i].overlap_ratio);
  }
}

TEST_F(QueryTraceTest, TraceIsResetBetweenQueries) {
  QueryContext ctx(5);
  SearchParams sp;
  sp.k = 3;
  obs::QueryTrace trace;
  (void)index_->Search(data_.vector(2),
                       {data_.timestamps[0], data_.timestamps[250]}, sp, &ctx,
                       {.trace = &trace});
  const size_t first_blocks = trace.blocks.size();
  EXPECT_GT(first_blocks, 0u);
  // Re-using the same trace object must not accumulate.
  (void)index_->Search(data_.vector(2),
                       {data_.timestamps[0], data_.timestamps[250]}, sp, &ctx,
                       {.trace = &trace});
  EXPECT_EQ(trace.blocks.size(), first_blocks);
}

TEST(ObsDefaultRegistryTest, QueryPathPopulatesGlobalMetrics) {
  MetricRegistry& reg = MetricRegistry::Default();
  Counter* queries = reg.GetCounter("mbi_queries_total");
  const uint64_t before = queries->Value();

  SyntheticParams gen;
  gen.dim = 4;
  gen.seed = 11;
  SyntheticData data = GenerateSynthetic(gen, 64);
  MbiParams p;
  p.leaf_size = 8;
  p.build.degree = 4;
  p.build.exact_threshold = 1 << 20;
  MbiIndex index(4, Metric::kL2, p);
  ASSERT_TRUE(
      index.AddBatch(data.vectors.data(), data.timestamps.data(), 64).ok());

  QueryContext ctx(9);
  SearchParams sp;
  sp.k = 3;
  (void)index.Search(data.vector(0), TimeWindow::All(), sp, &ctx);
  EXPECT_GT(queries->Value(), before);
  EXPECT_GT(reg.GetCounter("mbi_build_blocks_built_total")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("mbi_selection_nodes_visited_total")->Value(), 0u);

  // The default registry must expose cleanly in both formats.
  EXPECT_FALSE(obs::PrometheusText(reg).empty());
  EXPECT_TRUE(JsonBalanced(obs::RegistryJson(reg)));
}

// The mbi_search_* series are derived from MbiIndex::Search's per-query
// record, and only from it: baseline queries (BSBF's exact scan, SF's graph
// search) run the same kernels but are not MBI queries.
TEST(ObsDefaultRegistryTest, SearchSeriesMoveByTheQueryRecordOnly) {
  MetricRegistry& reg = MetricRegistry::Default();
  const std::vector<Counter*> series = {
      reg.GetCounter("mbi_search_graph_searches_total"),
      reg.GetCounter("mbi_search_exact_scans_total"),
      reg.GetCounter("mbi_search_distance_evals_total"),
      reg.GetCounter("mbi_search_exact_distance_evals_total")};
  const auto read = [&series] {
    std::vector<uint64_t> values;
    for (const Counter* c : series) values.push_back(c->Value());
    return values;
  };
  const auto moved = [&read](const std::vector<uint64_t>& before) {
    std::vector<uint64_t> now = read();
    for (size_t i = 0; i < now.size(); ++i) now[i] -= before[i];
    return now;
  };

  // 8 full leaves plus a 6-row tail: a whole-history query searches graph
  // blocks and exact-scans the tail.
  constexpr size_t kN = 70, kDim = 4;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 13;
  const SyntheticData data = GenerateSynthetic(gen, kN);
  MbiParams p;
  p.leaf_size = 8;
  p.build.degree = 4;
  p.build.exact_threshold = 1 << 20;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      index.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(
      bsbf.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
  SfIndex sf(kDim, Metric::kL2, p.build);
  ASSERT_TRUE(
      sf.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
  sf.Build();

  SearchParams sp;
  sp.k = 5;
  QueryContext ctx(21);
  std::vector<uint64_t> before = read();
  MbiQueryStats rec;
  ASSERT_FALSE(index
                   .Search(data.vector(3), TimeWindow::All(), sp, &ctx,
                           {.stats = &rec})
                   .empty());
  ASSERT_GT(rec.graph_blocks, 0u);
  ASSERT_GT(rec.exact_blocks, 0u);
  const std::vector<uint64_t> want = {
      rec.graph_blocks, rec.exact_blocks,
      rec.search.distance_evaluations - rec.exact_distance_evals,
      rec.exact_distance_evals};
  EXPECT_EQ(moved(before), want);

  before = read();
  ASSERT_FALSE(bsbf.Search(data.vector(3), sp.k, TimeWindow::All()).empty());
  ASSERT_FALSE(sf.Search(data.vector(3), TimeWindow::All(), sp, &ctx).empty());
  EXPECT_EQ(moved(before), std::vector<uint64_t>(series.size(), 0));
}

}  // namespace
}  // namespace mbi
