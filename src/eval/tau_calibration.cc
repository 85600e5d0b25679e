#include "eval/tau_calibration.h"

#include <algorithm>

#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "eval/workload.h"
#include "util/check.h"
#include "util/timer.h"

namespace mbi {

TauPolicy::TauPolicy(std::vector<double> fractions, std::vector<double> taus)
    : fractions_(std::move(fractions)), taus_(std::move(taus)) {
  MBI_CHECK(fractions_.size() == taus_.size());
  MBI_CHECK(std::is_sorted(fractions_.begin(), fractions_.end()));
}

double TauPolicy::TauFor(double fraction) const {
  if (fractions_.empty()) return 0.5;
  // Nearest bucket by fraction.
  size_t best = 0;
  double best_gap = std::abs(fractions_[0] - fraction);
  for (size_t i = 1; i < fractions_.size(); ++i) {
    double gap = std::abs(fractions_[i] - fraction);
    if (gap < best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return taus_[best];
}

double TauPolicy::TauFor(const VectorStore& store,
                         const TimeWindow& window) const {
  if (store.empty()) return 0.5;
  const double fraction = static_cast<double>(store.FindRange(window).size()) /
                          static_cast<double>(store.size());
  return TauFor(fraction);
}

TauPolicy CalibrateTau(const MbiIndex& index, const float* queries,
                       size_t num_test, const std::vector<double>& fractions,
                       const std::vector<double>& taus,
                       const SearchParams& search, double recall_target,
                       size_t queries_per_fraction, uint64_t seed,
                       std::vector<TauCalibrationCell>* cells) {
  MBI_CHECK(!fractions.empty() && !taus.empty());
  std::vector<double> sorted_fractions = fractions;
  std::sort(sorted_fractions.begin(), sorted_fractions.end());

  std::vector<double> winners;
  QueryContext ctx(seed ^ 0xCAFE);
  std::vector<SearchResult> results(queries_per_fraction);

  for (double fraction : sorted_fractions) {
    auto workload = MakeWindowWorkload(index.store(), fraction,
                                       queries_per_fraction, num_test, seed);
    auto truth = ComputeGroundTruth(index.store(), queries, workload, search.k);

    double best_tau = taus.front();
    double best_qps = -1.0;
    double best_recall = -1.0;
    bool any_achieved = false;
    for (double tau : taus) {
      WallTimer timer;
      for (size_t i = 0; i < workload.size(); ++i) {
        results[i] = index.Search(
            queries + workload[i].query_index * index.store().dim(),
            workload[i].window, search, &ctx, {.tau = tau});
      }
      const double qps = workload.size() / timer.ElapsedSeconds();
      const double recall = MeanRecall(results, truth, search.k);
      if (cells != nullptr) {
        cells->push_back({fraction, tau, qps, recall});
      }
      const bool achieved = recall >= recall_target;
      const bool better =
          achieved
              ? (!any_achieved || qps > best_qps)
              : (!any_achieved && (recall > best_recall ||
                                   (recall == best_recall && qps > best_qps)));
      if (better) {
        best_tau = tau;
        best_qps = qps;
        best_recall = recall;
        any_achieved = any_achieved || achieved;
      }
    }
    winners.push_back(best_tau);
  }
  return TauPolicy(sorted_fractions, winners);
}

}  // namespace mbi
