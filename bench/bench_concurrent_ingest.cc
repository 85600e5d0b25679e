// Concurrent ingest: query throughput and latency while one writer thread
// ingests at full speed, against a query-only baseline on the same index.
//
// Exercises the single-writer/multi-reader contract end to end: readers pin
// a ReadView (immutable block snapshot + committed vector prefix) and run
// Search against it while Add() drives merge cascades on the writer.
// Reports query QPS, latency percentiles, and the writer's ingest rate.

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "data/synthetic.h"
#include "util/rng.h"

int main() {
  using namespace mbi;
  using namespace mbi::bench;

  PrintHeader("Concurrent ingest: query QPS/latency during live writes");

  const size_t n_total = static_cast<size_t>(
      (FullMode() ? 60000 : 20000) * BenchScaleFromEnv());
  const size_t n_preload = n_total / 2;
  const size_t dim = 16;
  const size_t num_readers =
      std::max<size_t>(2, ThreadPool::DefaultThreads());
  const size_t kNumQueries = 64;

  SyntheticParams gen;
  gen.dim = dim;
  gen.num_clusters = 16;
  gen.seed = 4242;
  SyntheticData data = GenerateSynthetic(gen, n_total);
  std::vector<float> queries = GenerateQueries(gen, kNumQueries);

  MbiParams params;
  params.leaf_size = 1000;
  params.build.degree = 16;
  params.build.exact_threshold = 2048;

  MbiIndex index(dim, Metric::kL2, params);
  MBI_CHECK_OK(index.AddBatch(data.vectors.data(), data.timestamps.data(),
                              n_preload));

  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = 64;
  sp.epsilon = 1.2f;
  sp.num_entry_points = 4;

  auto& reg = obs::MetricRegistry::Default();
  obs::Histogram* latency = reg.GetHistogram(
      "bench_ingest_query_seconds",
      obs::Histogram::ExponentialBounds(1e-6, 2.0, 22),
      "per-query wall seconds while the writer ingests");

  // One reader iteration: pin a view, query a random window inside it.
  auto run_query = [&](Rng& rng, QueryContext& ctx,
                       std::vector<double>* lat_out) {
    const ReadView view = index.AcquireReadView();
    const int64_t n = static_cast<int64_t>(view.num_vectors);
    const int64_t a = static_cast<int64_t>(rng.NextBounded(n));
    const int64_t b = a + 1 + static_cast<int64_t>(rng.NextBounded(n - a));
    const size_t qi = rng.NextBounded(kNumQueries);
    WallTimer t;
    SearchResult r = index.Search(queries.data() + qi * dim, TimeWindow{a, b},
                                  sp, &ctx, {.view = &view});
    const double s = t.ElapsedSeconds();
    lat_out->push_back(s);
    return r.size();
  };

  // A measured phase: `num_readers` threads querying until `stop` flips (or,
  // for the baseline, until each thread hits its query budget).
  auto measure = [&](std::atomic<bool>* stop, size_t budget_per_thread,
                     std::vector<double>* latencies) {
    std::atomic<size_t> total{0};
    std::vector<std::vector<double>> per_thread(num_readers);
    std::vector<std::thread> threads;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
    WallTimer wall;
    for (size_t t = 0; t < num_readers; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(500 + t);
        QueryContext ctx(900 + t);
        size_t done = 0;
        while ((stop == nullptr || !stop->load(std::memory_order_acquire)) &&
               (budget_per_thread == 0 || done < budget_per_thread)) {
          run_query(rng, ctx, &per_thread[t]);
          ++done;
        }
        total.fetch_add(done);
      });
    }
    for (auto& th : threads) th.join();
    const double seconds = wall.ElapsedSeconds();
    for (auto& v : per_thread) {
      latencies->insert(latencies->end(), v.begin(), v.end());
    }
    return seconds > 0 ? total.load() / seconds : 0.0;
  };

  auto percentile = [](std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t i = static_cast<size_t>(p * (v.size() - 1));
    return v[i];
  };

  // Phase 1: query-only baseline on the preloaded index.
  std::vector<double> baseline_lat;
  const double baseline_qps =
      measure(nullptr, FullMode() ? 400 : 150, &baseline_lat);
  std::printf("baseline (no writer): %zu readers, %.0f QPS\n", num_readers,
              baseline_qps);
  std::fflush(stdout);

  // Phase 2: same readers while the writer ingests the second half.
  std::atomic<bool> stop{false};
  std::vector<double> live_lat;
  double live_qps = 0.0;
  double ingest_seconds = 0.0;
  std::thread measurer([&] { live_qps = measure(&stop, 0, &live_lat); });  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  {
    WallTimer t;
    for (size_t i = n_preload; i < n_total; ++i) {
      MBI_CHECK_OK(
          index.Add(data.vectors.data() + i * dim, data.timestamps[i]));
    }
    ingest_seconds = t.ElapsedSeconds();
  }
  stop.store(true, std::memory_order_release);
  measurer.join();
  MBI_CHECK(index.size() == n_total);

  for (double s : live_lat) latency->Observe(s);
  const double ingest_rate =
      ingest_seconds > 0 ? (n_total - n_preload) / ingest_seconds : 0.0;

  TablePrinter table({"phase", "queries", "QPS", "p50 (ms)", "p95 (ms)",
                      "p99 (ms)"});
  auto row = [&](const char* name, const std::vector<double>& lat,
                 double qps) {
    table.AddRow({name, FormatCount(lat.size()), FormatFloat(qps, 0),
                  FormatFloat(percentile(lat, 0.50) * 1e3, 3),
                  FormatFloat(percentile(lat, 0.95) * 1e3, 3),
                  FormatFloat(percentile(lat, 0.99) * 1e3, 3)});
  };
  row("query-only", baseline_lat, baseline_qps);
  row("during ingest", live_lat, live_qps);
  table.Print();
  std::printf("\nwriter: ingested %s vectors in %.2fs (%.0f vectors/s) "
              "alongside %zu readers\n",
              FormatCount(n_total - n_preload).c_str(), ingest_seconds,
              ingest_rate, num_readers);

  reg.GetGauge("bench_ingest_query_qps",
               "query throughput while the writer was ingesting")
      ->Set(live_qps);
  reg.GetGauge("bench_ingest_baseline_qps",
               "query throughput on the quiesced index")
      ->Set(baseline_qps);
  reg.GetGauge("bench_ingest_vectors_per_second",
               "writer ingest rate during the measured phase")
      ->Set(ingest_rate);
  reg.GetGauge("bench_ingest_query_p50_seconds", "median query latency")
      ->Set(percentile(live_lat, 0.50));
  reg.GetGauge("bench_ingest_query_p95_seconds", "p95 query latency")
      ->Set(percentile(live_lat, 0.95));
  reg.GetGauge("bench_ingest_query_p99_seconds", "p99 query latency")
      ->Set(percentile(live_lat, 0.99));

  ExportBenchMetrics("concurrent_ingest");
  return 0;
}
