// Budget enforcement: deadlines, work caps, cancellation, and graceful
// degradation across every search path (MBI, BSBF, SF, flat/graph/HNSW
// blocks). The deadline-overshoot assertions use the injected per-distance
// delay hook so a 1 ms deadline is meaningfully exceeded only if the budget
// checks are broken.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "baseline/sf_index.h"
#include "data/synthetic.h"
#include "mbi/mbi_index.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/budget.h"
#include "util/timer.h"

namespace mbi {
namespace {

// ------------------------------------------------------- tracker units

TEST(BudgetTrackerTest, InactiveTrackerNeverExhausts) {
  BudgetTracker t;
  EXPECT_FALSE(t.active());
  for (int i = 0; i < 100000; ++i) {
    EXPECT_TRUE(t.ChargeDistance());
    EXPECT_TRUE(t.ChargeHop());
  }
  EXPECT_FALSE(t.Exhausted());

  BudgetTracker null_budget(nullptr);
  EXPECT_FALSE(null_budget.active());
  EXPECT_TRUE(null_budget.ChargeDistance(1000));
}

TEST(BudgetTrackerTest, UnboundedBudgetIsActiveButNeverExhausts) {
  const QueryBudget b = QueryBudget::Unlimited();
  BudgetTracker t(&b);
  EXPECT_TRUE(t.active());
  EXPECT_FALSE(t.bounded());
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(t.ChargeDistance());
  EXPECT_FALSE(t.Exhausted());
}

TEST(BudgetTrackerTest, DistanceCapTrips) {
  QueryBudget b;
  b.max_distance_evals = 100;
  BudgetTracker t(&b);
  uint64_t charged = 0;
  while (t.ChargeDistance()) ++charged;
  EXPECT_EQ(charged, 100u);
  EXPECT_TRUE(t.Exhausted());
  EXPECT_EQ(t.reason(), DegradeReason::kDistanceBudget);
  EXPECT_FALSE(t.ChargeDistance());  // stays exhausted
}

TEST(BudgetTrackerTest, HopCapTrips) {
  QueryBudget b;
  b.max_hops = 7;
  BudgetTracker t(&b);
  uint64_t hops = 0;
  while (t.ChargeHop()) ++hops;
  EXPECT_EQ(hops, 7u);
  EXPECT_EQ(t.reason(), DegradeReason::kHopBudget);
}

TEST(BudgetTrackerTest, PreExpiredDeadlineIsExhaustedImmediately) {
  const QueryBudget b = QueryBudget::WithDeadline(-1.0);
  BudgetTracker t(&b);
  EXPECT_TRUE(t.Exhausted());
  EXPECT_EQ(t.reason(), DegradeReason::kDeadlineExceeded);
  EXPECT_FALSE(t.ChargeDistance());
  EXPECT_DOUBLE_EQ(t.FractionRemaining(), 0.0);
}

TEST(BudgetTrackerTest, CancellationTripsOnPoll) {
  CancellationToken token;
  QueryBudget b;
  b.cancellation = &token;
  BudgetTracker t(&b);
  EXPECT_TRUE(t.ChargeDistance());
  token.Cancel();
  t.CheckNow();
  EXPECT_TRUE(t.Exhausted());
  EXPECT_EQ(t.reason(), DegradeReason::kCancelled);
}

TEST(BudgetTrackerTest, FractionRemainingTracksTightestDimension) {
  QueryBudget b;
  b.max_distance_evals = 100;
  b.max_hops = 10;
  BudgetTracker t(&b);
  EXPECT_DOUBLE_EQ(t.FractionRemaining(), 1.0);
  t.ChargeDistance(50);  // distance at 50%
  t.ChargeHop();         // hops at 90%
  EXPECT_NEAR(t.FractionRemaining(), 0.5, 1e-9);
  for (int i = 0; i < 8; ++i) t.ChargeHop();  // hops now at 10%
  EXPECT_NEAR(t.FractionRemaining(), 0.1, 1e-9);
}

// --------------------------------------------------- shared fixture

class BudgetSearchTest : public ::testing::Test {
 protected:
  static constexpr size_t kN = 4000;
  static constexpr size_t kDim = 16;

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.seed = 77;
    data_ = GenerateSynthetic(gen, kN);

    MbiParams p;
    p.leaf_size = 256;
    p.tau = 0.5;
    p.build.degree = 12;
    index_ = std::make_unique<MbiIndex>(kDim, Metric::kL2, p);
    bsbf_ = std::make_unique<BsbfIndex>(kDim, Metric::kL2);
    ASSERT_TRUE(index_
                    ->AddBatch(data_.vectors.data(), data_.timestamps.data(),
                               kN)
                    .ok());
    ASSERT_TRUE(bsbf_
                    ->AddBatch(data_.vectors.data(), data_.timestamps.data(),
                               kN)
                    .ok());
  }

  TimeWindow Window(size_t lo, size_t hi) const {
    return TimeWindow{data_.timestamps[lo], data_.timestamps[hi]};
  }

  // Oracle: every neighbor of a (possibly degraded) result must be a real
  // in-window vector with a correctly computed distance — degraded results
  // may be incomplete but never invalid.
  void ExpectValidNeighbors(const SearchResult& r, const TimeWindow& w,
                            const float* query) {
    const VectorStore& store = bsbf_->store();
    const IdRange range = store.FindRange(w);
    std::set<VectorId> seen;
    for (const Neighbor& nb : r) {
      EXPECT_GE(nb.id, range.begin);
      EXPECT_LT(nb.id, range.end);
      EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate id " << nb.id;
      const float want = store.distance()(query, store.GetVector(nb.id));
      EXPECT_FLOAT_EQ(nb.distance, want);
    }
  }

  SyntheticData data_;
  std::unique_ptr<MbiIndex> index_;
  std::unique_ptr<BsbfIndex> bsbf_;
};

TEST_F(BudgetSearchTest, UnbudgetedQueriesAreComplete) {
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  SearchResult r = index_->Search(data_.vector(0), Window(0, kN - 1), sp,
                                  &ctx);
  EXPECT_EQ(r.completion, Completion::kComplete);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(r.blocks_skipped, 0u);
  EXPECT_EQ(r.size(), 10u);
}

TEST_F(BudgetSearchTest, DistanceBudgetDegradesButNeverInvalidates) {
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  QueryBudget budget;
  budget.max_distance_evals = 50;  // far below what the query needs
  sp.budget = &budget;
  const TimeWindow w = Window(0, kN - 1);
  SearchResult r = index_->Search(data_.vector(0), w, sp, &ctx);
  EXPECT_EQ(r.completion, Completion::kDegraded);
  EXPECT_EQ(r.degrade_reason, DegradeReason::kDistanceBudget);
  ExpectValidNeighbors(r, w, data_.vector(0));
}

TEST_F(BudgetSearchTest, GenerousBudgetStaysComplete) {
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  QueryBudget budget;
  budget.max_distance_evals = 100000000;
  budget.deadline = Deadline::After(60.0);
  sp.budget = &budget;
  SearchResult bounded = index_->Search(data_.vector(0), Window(0, kN - 1),
                                        sp, &ctx);
  EXPECT_EQ(bounded.completion, Completion::kComplete);
  EXPECT_EQ(bounded.size(), 10u);
}

TEST_F(BudgetSearchTest, CancellationStopsTheQuery) {
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  CancellationToken token;
  token.Cancel();  // cancelled before the query even starts
  QueryBudget budget;
  budget.cancellation = &token;
  sp.budget = &budget;
  const TimeWindow w = Window(0, kN - 1);
  SearchResult r = index_->Search(data_.vector(0), w, sp, &ctx);
  EXPECT_EQ(r.completion, Completion::kDegraded);
  EXPECT_EQ(r.degrade_reason, DegradeReason::kCancelled);
  ExpectValidNeighbors(r, w, data_.vector(0));
}

// The headline bound: with a 20 us injected delay per distance evaluation a
// 1 ms deadline allows only ~50 evaluations, so an unbudgeted query (which
// needs thousands) would blow far past it. The budgeted query must return
// within a small constant multiple of the deadline.
TEST_F(BudgetSearchTest, DeadlineOvershootIsBounded) {
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  const double kDeadline = 1e-3;
  const double kMaxOvershoot = 5.0;  // p99 <= 5x target from the issue
  budget_testing::ScopedDistanceDelay delay(20000);  // 20 us per eval

  const TimeWindow w = Window(0, kN - 1);
  std::vector<double> elapsed;
  for (int rep = 0; rep < 50; ++rep) {
    QueryBudget budget = QueryBudget::WithDeadline(kDeadline);
    sp.budget = &budget;
    WallTimer timer;
    SearchResult r = index_->Search(data_.vector(rep % 100), w, sp, &ctx);
    elapsed.push_back(timer.ElapsedSeconds());
    EXPECT_EQ(r.completion, Completion::kDegraded);
    EXPECT_EQ(r.degrade_reason, DegradeReason::kDeadlineExceeded);
    ExpectValidNeighbors(r, w, data_.vector(rep % 100));
  }
  std::sort(elapsed.begin(), elapsed.end());
  const double p99 = elapsed[static_cast<size_t>(elapsed.size() * 99 / 100)];
  EXPECT_LE(p99, kDeadline * kMaxOvershoot)
      << "p99 overshoot " << p99 / kDeadline << "x";
}

// Subset-correctness oracle vs the exact baseline: a budgeted MBI query may
// return fewer/worse neighbors than the unbudgeted one, but everything it
// returns must be drawn from the same in-window universe BSBF scans.
TEST_F(BudgetSearchTest, DegradedResultsAreSubsetCorrect) {
  QueryContext ctx;
  SearchParams sp;
  sp.k = 20;
  const TimeWindow w = Window(kN / 4, (3 * kN) / 4);
  const IdRange range = bsbf_->store().FindRange(w);

  for (uint64_t cap : {20u, 100u, 500u, 2000u}) {
    QueryBudget budget;
    budget.max_distance_evals = cap;
    sp.budget = &budget;
    SearchResult got = index_->Search(data_.vector(0), w, sp, &ctx);
    ExpectValidNeighbors(got, w, data_.vector(0));
    for (const Neighbor& nb : got) {
      EXPECT_GE(nb.id, range.begin);
      EXPECT_LT(nb.id, range.end);
    }
  }
}

TEST_F(BudgetSearchTest, ExplainCarriesBudgetSpend) {
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  QueryBudget budget;
  budget.max_distance_evals = 200;
  sp.budget = &budget;
  obs::QueryTrace trace;
  (void)index_->Search(data_.vector(0), Window(0, kN - 1), sp, &ctx,
                       {.trace = &trace});
  EXPECT_TRUE(trace.budget.bounded);
  EXPECT_EQ(trace.budget.max_distance_evals, 200u);
  EXPECT_GT(trace.budget.distance_evals_spent, 0u);
  EXPECT_EQ(trace.budget.completion, Completion::kDegraded);

  const std::string text = trace.ToString();
  EXPECT_NE(text.find("budget:"), std::string::npos);
  EXPECT_NE(text.find("degraded"), std::string::npos);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"budget\":"), std::string::npos);
  EXPECT_NE(json.find("\"distance_evals_spent\":"), std::string::npos);
}

TEST_F(BudgetSearchTest, DegradedCountersAndExporterAdvance) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  obs::Counter* degraded = reg.GetCounter("mbi_query_degraded_total");
  obs::Counter* deadline = reg.GetCounter("mbi_query_deadline_exceeded_total");
  const uint64_t degraded_before = degraded->Value();
  const uint64_t deadline_before = deadline->Value();

  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  QueryBudget budget = QueryBudget::WithDeadline(-1.0);  // pre-expired
  sp.budget = &budget;
  (void)index_->Search(data_.vector(0), Window(0, kN - 1), sp, &ctx);

  EXPECT_EQ(degraded->Value(), degraded_before + 1);
  EXPECT_EQ(deadline->Value(), deadline_before + 1);

  const std::string prom = obs::PrometheusText(reg);
  EXPECT_NE(prom.find("mbi_query_degraded_total"), std::string::npos);
  EXPECT_NE(prom.find("mbi_query_deadline_exceeded_total"), std::string::npos);
  EXPECT_NE(prom.find("mbi_query_shed_total"), std::string::npos);
}

// ------------------------------------------------------- baselines

TEST_F(BudgetSearchTest, BsbfHonorsBudget) {
  const TimeWindow w = Window(0, kN - 1);
  QueryBudget budget;
  budget.max_distance_evals = 128;
  SearchResult r = bsbf_->Search(data_.vector(0), 10, w, &budget);
  EXPECT_EQ(r.completion, Completion::kDegraded);
  EXPECT_EQ(r.degrade_reason, DegradeReason::kDistanceBudget);
  // The scanned prefix is exact: its top-k equals BSBF over that prefix.
  EXPECT_LE(r.size(), 10u);
  ExpectValidNeighbors(r, w, data_.vector(0));

  SearchResult full = bsbf_->Search(data_.vector(0), 10, w);
  EXPECT_EQ(full.completion, Completion::kComplete);
}

TEST_F(BudgetSearchTest, SfHonorsBudget) {
  GraphBuildParams gp;
  gp.degree = 12;
  SfIndex sf(kDim, Metric::kL2, gp);
  ASSERT_TRUE(
      sf.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());
  sf.Build();

  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  QueryBudget budget;
  budget.max_distance_evals = 60;
  sp.budget = &budget;
  const TimeWindow w = Window(0, kN - 1);
  SearchResult r = sf.Search(data_.vector(0), w, sp, &ctx);
  EXPECT_EQ(r.completion, Completion::kDegraded);
  ExpectValidNeighbors(r, w, data_.vector(0));

  sp.budget = nullptr;
  SearchResult full = sf.Search(data_.vector(0), w, sp, &ctx);
  EXPECT_EQ(full.completion, Completion::kComplete);
}

// HNSW blocks run the same budget plumbing through a different searcher.
TEST(BudgetHnswTest, HnswBlocksHonorDistanceBudget) {
  constexpr size_t kN = 2000;
  constexpr size_t kDim = 12;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 31;
  SyntheticData data = GenerateSynthetic(gen, kN);

  MbiParams p;
  p.leaf_size = 256;
  p.block_kind = BlockIndexKind::kHnsw;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      index.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());

  QueryContext ctx;
  SearchParams sp;
  sp.k = 5;
  QueryBudget budget;
  budget.max_distance_evals = 40;
  sp.budget = &budget;
  SearchResult r = index.Search(
      data.vector(0), TimeWindow{data.timestamps[0], data.timestamps[kN - 1]},
      sp, &ctx);
  EXPECT_EQ(r.completion, Completion::kDegraded);
  EXPECT_EQ(r.degrade_reason, DegradeReason::kDistanceBudget);
}

}  // namespace
}  // namespace mbi
