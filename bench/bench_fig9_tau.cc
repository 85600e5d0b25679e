// Figure 9: effect of the block-selection threshold tau (0.1..0.9) on query
// throughput across window fractions, with BSBF and SF for reference.
//
// tau is a pure query-time parameter, so one index per dataset serves every
// tau. The paper's findings: tau <= 0.5 guarantees <= 2 blocks per query
// (Lemma 4.1); large tau fans out into many small blocks and slows long
// windows; tau ~ 0.5 is a robust default.

#include "bench_common.h"

#include "eval/tau_calibration.h"

int main() {
  using namespace mbi;
  using namespace mbi::bench;

  PrintHeader("Figure 9: window fraction vs. QPS for tau in {0.1 .. 0.9}");

  const std::vector<double> taus = {0.1, 0.3, 0.5, 0.7, 0.9};
  const std::vector<std::string> datasets =
      FullMode() ? std::vector<std::string>{"movielens-sim", "coms-sim",
                                            "sift-sim", "deep-sim"}
                 : std::vector<std::string>{"movielens-sim", "sift-sim"};
  const size_t k = 10;

  for (const std::string& name : datasets) {
    BenchDataset ds = MakeDataset(FindDatasetSpec(name));
    std::printf("\n--- %s ---\n", ds.name.c_str());
    // The block structure is tau-independent; one build serves every tau
    // via QueryOptions::tau.
    auto mbi_index = BuildMbi(ds);
    auto sf = BuildSf(ds);

    std::vector<std::string> header = {"fraction"};
    for (double tau : taus) header.push_back("tau=" + FormatFloat(tau, 1));
    header.push_back("BSBF");
    header.push_back("SF");
    TablePrinter table(header);

    // Average blocks searched per tau (reported after the QPS table).
    std::vector<double> avg_blocks(taus.size(), 0.0);
    size_t block_samples = 0;

    for (double fraction : WindowFractions()) {
      auto workload = MakeWindowWorkload(
          mbi_index->store(), fraction, QueriesPerFraction(), ds.num_test,
          /*seed=*/5000 + static_cast<uint64_t>(fraction * 1e4));
      auto truth = ComputeGroundTruth(mbi_index->store(), ds.test.data(),
                                      workload, k);

      std::vector<std::string> row = {FormatFloat(fraction * 100, 0) + "%"};
      for (size_t ti = 0; ti < taus.size(); ++ti) {
        // Tau only affects block selection: a per-query override.
        QueryContext ctx(17);
        auto run = [&](const WindowQuery& wq, float eps) {
          SearchParams sp = ds.search;
          sp.k = k;
          sp.epsilon = eps;
          MbiQueryStats stats;
          SearchResult r =
              mbi_index->Search(ds.test_query(wq.query_index), wq.window, sp,
                                &ctx, {.tau = taus[ti], .stats = &stats});
          avg_blocks[ti] += stats.blocks_searched();
          ++block_samples;
          return r;
        };
        QpsAtRecall best = BestQpsAtRecall(
            SweepEpsilon(workload, truth, k, EpsGrid(), run), RecallTarget());
        row.push_back(FormatQps(best));
      }
      row.push_back(FormatFloat(
          MeasureBsbfQps(mbi_index->store(), ds.test.data(), workload, k), 1));
      row.push_back(FormatQps(MeasureSf(*sf, ds, workload, truth, k)));
      table.AddRow(std::move(row));
    }
    table.Print();

    std::printf("mean blocks searched per query: ");
    for (size_t ti = 0; ti < taus.size(); ++ti) {
      std::printf("tau=%.1f: %.2f  ", taus[ti],
                  avg_blocks[ti] * taus.size() / block_samples);
    }
    std::printf("\n");

    // Section 5.4.2's closing suggestion, implemented: precompute the
    // optimal tau per window-length bucket and use it at run time.
    SearchParams sp = ds.search;
    sp.k = k;
    sp.epsilon = 1.2f;
    TauPolicy policy = CalibrateTau(
        *mbi_index, ds.test.data(), ds.num_test, WindowFractions(), taus, sp,
        RecallTarget(), QueriesPerFraction() / 2, /*seed=*/31337);
    std::printf("calibrated tau policy: ");
    for (size_t i = 0; i < policy.fractions().size(); ++i) {
      std::printf("%.0f%%->%.1f  ", policy.fractions()[i] * 100,
                  policy.taus()[i]);
    }
    std::printf("\n");
  }
  ExportBenchMetrics("fig9_tau");
  return 0;
}
