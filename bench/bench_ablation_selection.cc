// Ablation: block-selection strategy.
//
// MBI's top-down mixed selection (Algorithm 4) against its two degenerate
// extremes, which are exactly the simple methods of Section 3.2:
//   root-only   (tau -> 0): always search the biggest covering block (~SF)
//   leaves-only (tau  > 1): always search the smallest blocks (~BSBF cost
//                           profile, many graph searches)
// This isolates the contribution of the selection policy itself.

#include "bench_common.h"

int main() {
  using namespace mbi;
  using namespace mbi::bench;

  PrintHeader("Ablation: top-down selection vs. root-only vs. leaves-only");

  BenchDataset ds = MakeDataset(FindDatasetSpec("coms-sim"));
  auto index = BuildMbi(ds);
  const size_t k = 10;

  struct Policy {
    const char* name;
    double tau;
  };
  const Policy policies[] = {
      {"top-down (tau=0.5)", 0.5},
      {"root-only (tau=1e-9)", 1e-9},
      {"leaves-only (tau=1.01)", 1.01},  // > 1: no internal block qualifies
  };

  TablePrinter table({"fraction", "policy", "qps@0.995", "mean blocks",
                      "mean dist evals"});
  for (double fraction : WindowFractions()) {
    auto workload = MakeWindowWorkload(
        index->store(), fraction, QueriesPerFraction(), ds.num_test,
        /*seed=*/77 + static_cast<uint64_t>(fraction * 1e4));
    auto truth =
        ComputeGroundTruth(index->store(), ds.test.data(), workload, k);

    for (const Policy& policy : policies) {
      QueryContext ctx(5);
      size_t blocks = 0, evals = 0, samples = 0;
      auto run = [&](const WindowQuery& wq, float eps) {
        SearchParams sp = ds.search;
        sp.k = k;
        sp.epsilon = eps;
        MbiQueryStats stats;
        SearchResult r =
            index->Search(ds.test_query(wq.query_index), wq.window, sp, &ctx,
                          {.tau = policy.tau, .stats = &stats});
        blocks += stats.blocks_searched();
        evals += stats.search.distance_evaluations;
        ++samples;
        return r;
      };
      QpsAtRecall best = BestQpsAtRecall(
          SweepEpsilon(workload, truth, k, EpsGrid(), run), RecallTarget());
      table.AddRow({FormatFloat(fraction * 100, 0) + "%", policy.name,
                    FormatQps(best),
                    FormatFloat(static_cast<double>(blocks) / samples, 2),
                    FormatCount(evals / samples)});
    }
  }
  table.Print();

  std::printf("\nExpected: root-only wins only on ~full windows; leaves-only "
              "pays per-block overhead\non long windows; top-down tracks the "
              "best of both.\n");
  ExportBenchMetrics("ablation_selection");
  return 0;
}
