// Extensions beyond the paper's core algorithm: adaptive per-block search
// and the precomputed-tau policy (Section 5.4.2's suggestion).

#include <memory>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "eval/tau_calibration.h"
#include "mbi/mbi_index.h"

namespace mbi {
namespace {

constexpr size_t kN = 2000;
constexpr size_t kDim = 16;

class ExtensionsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.num_clusters = 12;
    gen.seed = 777;
    data_ = GenerateSynthetic(gen, kN);
    queries_ = GenerateQueries(gen, 10);

    bsbf_ = std::make_unique<BsbfIndex>(kDim, Metric::kL2);
    ASSERT_TRUE(
        bsbf_->AddBatch(data_.vectors.data(), data_.timestamps.data(), kN)
            .ok());
  }

  std::unique_ptr<MbiIndex> Build(bool adaptive) {
    MbiParams p;
    p.leaf_size = 250;
    p.tau = 0.5;
    p.build.degree = 16;
    p.build.exact_threshold = 512;
    p.adaptive_block_search = adaptive;
    auto index = std::make_unique<MbiIndex>(kDim, Metric::kL2, p);
    MBI_CHECK_OK(
        index->AddBatch(data_.vectors.data(), data_.timestamps.data(), kN));
    return index;
  }

  SyntheticData data_;
  std::vector<float> queries_;
  std::unique_ptr<BsbfIndex> bsbf_;
};

TEST_F(ExtensionsFixture, AdaptiveShortWindowsAreExact) {
  auto index = Build(/*adaptive=*/true);
  QueryContext ctx;
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 48;
  // A short window: in-window count << M_C * degree, so every block must
  // take the exact path and the result must equal BSBF exactly.
  TimeWindow w{300, 420};
  for (size_t qi = 0; qi < 10; ++qi) {
    const float* q = queries_.data() + qi * kDim;
    MbiQueryStats stats;
    SearchResult got = index->Search(q, w, sp, &ctx, {.stats = &stats});
    SearchResult want = bsbf_->Search(q, 5, w);
    EXPECT_EQ(stats.graph_blocks, 0u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
    }
  }
}

TEST_F(ExtensionsFixture, AdaptiveLongWindowsStillUseGraphs) {
  auto index = Build(/*adaptive=*/true);
  QueryContext ctx;
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 16;  // graph cost ~ 16*16 = 256 evals
  sp.num_entry_points = 4;
  MbiQueryStats stats;
  index->Search(queries_.data(), TimeWindow{0, 2000}, sp, &ctx,
                {.stats = &stats});
  EXPECT_GT(stats.graph_blocks, 0u);
}

TEST_F(ExtensionsFixture, AdaptiveRecallAtLeastFaithful) {
  auto faithful = Build(false);
  auto adaptive = Build(true);
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = 64;
  sp.epsilon = 1.2f;
  sp.num_entry_points = 4;
  double faithful_recall = 0, adaptive_recall = 0;
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    int64_t a = rng.NextBounded(kN - 100);
    int64_t b = a + 50 + rng.NextBounded(kN - a - 50);
    TimeWindow w{a, b};
    const float* q = queries_.data() + (trial % 10) * kDim;
    SearchResult truth = bsbf_->Search(q, 10, w);
    faithful_recall += RecallAtK(faithful->Search(q, w, sp, &ctx), truth, 10);
    adaptive_recall += RecallAtK(adaptive->Search(q, w, sp, &ctx), truth, 10);
  }
  EXPECT_GE(adaptive_recall + 0.5, faithful_recall);  // no regression
  EXPECT_GE(adaptive_recall / 40, 0.9);
}

// ------------------------------------------------------------- TauPolicy

TEST(TauPolicyTest, EmptyPolicyFallsBackToHalf) {
  TauPolicy policy;
  EXPECT_DOUBLE_EQ(policy.TauFor(0.3), 0.5);
}

TEST(TauPolicyTest, NearestBucketLookup) {
  TauPolicy policy({0.1, 0.5, 0.9}, {0.7, 0.5, 0.2});
  EXPECT_DOUBLE_EQ(policy.TauFor(0.05), 0.7);
  EXPECT_DOUBLE_EQ(policy.TauFor(0.12), 0.7);
  EXPECT_DOUBLE_EQ(policy.TauFor(0.45), 0.5);
  EXPECT_DOUBLE_EQ(policy.TauFor(0.95), 0.2);
  EXPECT_DOUBLE_EQ(policy.TauFor(5.0), 0.2);
}

TEST(TauPolicyTest, WindowFractionLookup) {
  SyntheticParams gen;
  gen.dim = 4;
  SyntheticData data = GenerateSynthetic(gen, 100);
  VectorStore store(4, Metric::kL2);
  ASSERT_TRUE(
      store.AppendBatch(data.vectors.data(), data.timestamps.data(), 100).ok());
  TauPolicy policy({0.1, 0.9}, {0.8, 0.3});
  // Window covering 90 of 100 vectors -> fraction 0.9 bucket.
  EXPECT_DOUBLE_EQ(policy.TauFor(store, TimeWindow{5, 95}), 0.3);
  EXPECT_DOUBLE_EQ(policy.TauFor(store, TimeWindow{5, 15}), 0.8);
}

TEST_F(ExtensionsFixture, CalibrationPicksATauPerFraction) {
  auto index = Build(false);
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 64;
  sp.epsilon = 1.2f;
  sp.num_entry_points = 4;
  std::vector<TauCalibrationCell> cells;
  TauPolicy policy =
      CalibrateTau(*index, queries_.data(), 10, {0.1, 0.5, 0.9},
                   {0.2, 0.5, 0.8}, sp, /*recall_target=*/0.9,
                   /*queries_per_fraction=*/10, /*seed=*/3, &cells);
  ASSERT_EQ(policy.fractions().size(), 3u);
  ASSERT_EQ(cells.size(), 9u);  // 3 fractions x 3 taus measured
  for (double tau : policy.taus()) {
    EXPECT_TRUE(tau == 0.2 || tau == 0.5 || tau == 0.8);
  }
  // Policy lookups stay within the calibrated grid.
  for (double f : {0.05, 0.3, 0.7, 1.0}) {
    double tau = policy.TauFor(f);
    EXPECT_GE(tau, 0.2);
    EXPECT_LE(tau, 0.8);
  }
}

TEST_F(ExtensionsFixture, TauOptionMatchesParamsTau) {
  auto index = Build(false);
  QueryContext ctx_a(9), ctx_b(9);
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 48;
  TimeWindow w{200, 1500};
  SearchResult a = index->Search(queries_.data(), w, sp, &ctx_a);
  SearchResult b = index->Search(queries_.data(), w, sp, &ctx_b,
                                 {.tau = index->params().tau});
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mbi
