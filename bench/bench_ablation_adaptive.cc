// Extension ablation: adaptive per-block search.
//
// Faithful MBI always graph-searches full blocks (Algorithm 4). The
// adaptive extension scans a block exactly whenever its in-window vector
// count is below the expected distance-evaluation cost of the graph search
// (~M_C * degree), making MBI dominate BSBF on short windows at any data
// scale. This bench quantifies the gain over the faithful algorithm and both
// baselines.

#include "bench_common.h"

int main() {
  using namespace mbi;
  using namespace mbi::bench;

  PrintHeader("Ablation: adaptive per-block search (extension)");

  BenchDataset ds = MakeDataset(FindDatasetSpec("sift-sim"));
  const size_t k = 10;

  auto faithful = BuildMbi(ds);

  MbiParams adaptive_params;
  adaptive_params.leaf_size = ds.leaf_size;
  adaptive_params.tau = ds.tau;
  adaptive_params.build = ds.build;
  adaptive_params.adaptive_block_search = true;
  auto adaptive = std::make_unique<MbiIndex>(ds.dim, ds.metric, adaptive_params);
  MBI_CHECK_OK(adaptive->AddBatch(ds.train.vectors.data(),
                                  ds.train.timestamps.data(), ds.size()));

  auto sf = BuildSf(ds);

  TablePrinter table({"fraction", "MBI faithful", "MBI adaptive", "BSBF",
                      "SF", "adaptive exact-blocks/query"});
  for (double fraction : WindowFractions()) {
    auto workload = MakeWindowWorkload(
        faithful->store(), fraction, QueriesPerFraction(), ds.num_test,
        /*seed=*/909 + static_cast<uint64_t>(fraction * 1e4));
    auto truth =
        ComputeGroundTruth(faithful->store(), ds.test.data(), workload, k);

    QpsAtRecall mbi_q = MeasureMbi(*faithful, ds, workload, truth, k);

    // Adaptive run, counting how many blocks fell back to exact scans.
    size_t exact_blocks = 0, samples = 0;
    QueryContext ctx(3);
    auto run = [&](const WindowQuery& wq, float eps) {
      SearchParams sp = ds.search;
      sp.k = k;
      sp.epsilon = eps;
      MbiQueryStats stats;
      SearchResult r = adaptive->Search(ds.test_query(wq.query_index),
                                        wq.window, sp, &ctx, {.stats = &stats});
      exact_blocks += stats.exact_blocks;
      ++samples;
      return r;
    };
    QpsAtRecall adaptive_q = BestQpsAtRecall(
        SweepEpsilon(workload, truth, k, EpsGrid(), run), RecallTarget());

    double bsbf_qps =
        MeasureBsbfQps(faithful->store(), ds.test.data(), workload, k);
    QpsAtRecall sf_q = MeasureSf(*sf, ds, workload, truth, k);

    table.AddRow({FormatFloat(fraction * 100, 0) + "%", FormatQps(mbi_q),
                  FormatQps(adaptive_q), FormatFloat(bsbf_qps, 1),
                  FormatQps(sf_q),
                  FormatFloat(static_cast<double>(exact_blocks) / samples, 2)});
  }
  table.Print();

  std::printf("\nExpected: adaptive >= max(faithful, BSBF) everywhere; on "
              "short windows it converges\nto BSBF's exact scan, on long "
              "windows to the faithful graph path.\n");
  ExportBenchMetrics("ablation_adaptive");
  return 0;
}
