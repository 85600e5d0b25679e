// HNSW graph and HnswBlockIndex: construction invariants, search recall,
// filtering, serialization, and use as an MBI block index.

#include <algorithm>
#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "graph/hnsw.h"
#include "index/hnsw_block_index.h"
#include "mbi/mbi_index.h"
#include "util/io.h"

namespace mbi {
namespace {

class HnswFixture : public ::testing::Test {
 protected:
  static constexpr size_t kN = 2000;
  static constexpr size_t kDim = 16;

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.num_clusters = 12;
    gen.seed = 31;
    data_ = GenerateSynthetic(gen, kN);
    store_ = std::make_unique<VectorStore>(kDim, Metric::kL2);
    ASSERT_TRUE(store_
                    ->AppendBatch(data_.vectors.data(),
                                  data_.timestamps.data(), kN)
                    .ok());
    queries_ = GenerateQueries(gen, 20);

    HnswParams hp;
    hp.M = 12;
    hp.ef_construction = 80;
    hnsw_.Build(data_.vectors.data(), kN, store_->distance(), hp);
  }

  SyntheticData data_;
  std::unique_ptr<VectorStore> store_;
  std::vector<float> queries_;
  HnswGraph hnsw_;
};

TEST_F(HnswFixture, BuildProducesLayeredStructure) {
  EXPECT_EQ(hnsw_.num_nodes(), kN);
  EXPECT_GE(hnsw_.max_level(), 1);  // with n=2000 and M=12 several layers
}

TEST_F(HnswFixture, UnfilteredRecall) {
  double total = 0;
  for (size_t qi = 0; qi < 20; ++qi) {
    const float* q = queries_.data() + qi * kDim;
    auto got = hnsw_.Search(data_.vectors.data(), q, store_->distance(), 10,
                            /*ef=*/64);
    SearchResult truth = BsbfIndex::Query(*store_, q, 10, TimeWindow::All());
    // Convert local hits (already global here: range starts at 0).
    total += RecallAtK(got, truth, 10);
  }
  EXPECT_GE(total / 20, 0.9);
}

TEST_F(HnswFixture, LargerEfRaisesRecall) {
  auto recall_at = [&](size_t ef) {
    double total = 0;
    for (size_t qi = 0; qi < 20; ++qi) {
      const float* q = queries_.data() + qi * kDim;
      auto got =
          hnsw_.Search(data_.vectors.data(), q, store_->distance(), 10, ef);
      total += RecallAtK(got,
                         BsbfIndex::Query(*store_, q, 10, TimeWindow::All()),
                         10);
    }
    return total / 20;
  };
  EXPECT_GE(recall_at(128) + 0.02, recall_at(12));
  EXPECT_GE(recall_at(128), 0.95);
}

TEST_F(HnswFixture, FilteredSearchRespectsRange) {
  std::pair<NodeId, NodeId> filter{500, 900};
  for (size_t qi = 0; qi < 10; ++qi) {
    const float* q = queries_.data() + qi * kDim;
    auto got = hnsw_.Search(data_.vectors.data(), q, store_->distance(), 10,
                            64, &filter);
    EXPECT_EQ(got.size(), 10u);  // beam widening must find k
    for (const Neighbor& nb : got) {
      EXPECT_GE(nb.id, 500);
      EXPECT_LT(nb.id, 900);
    }
  }
}

TEST_F(HnswFixture, TinyFilterStillFindsEverything) {
  std::pair<NodeId, NodeId> filter{1000, 1008};  // 8 candidates
  const float* q = queries_.data();
  auto got = hnsw_.Search(data_.vectors.data(), q, store_->distance(), 10,
                          64, &filter);
  // Fewer than k in the window: all 8 must be returned.
  EXPECT_EQ(got.size(), 8u);
}

TEST_F(HnswFixture, SaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/hnsw_test.bin";
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(hnsw_.Save(&w).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  HnswGraph loaded;
  {
    BinaryReader r;
    ASSERT_TRUE(r.Open(path).ok());
    ASSERT_TRUE(loaded.Load(&r).ok());
  }
  EXPECT_EQ(loaded.num_nodes(), hnsw_.num_nodes());
  EXPECT_EQ(loaded.max_level(), hnsw_.max_level());
  EXPECT_EQ(loaded.MemoryBytes(), hnsw_.MemoryBytes());
  // Identical search results (deterministic structure).
  const float* q = queries_.data();
  auto a = hnsw_.Search(data_.vectors.data(), q, store_->distance(), 5, 32);
  auto b = loaded.Search(data_.vectors.data(), q, store_->distance(), 5, 32);
  EXPECT_EQ(a, b);
  std::remove(path.c_str());
}

TEST(HnswEdgeTest, EmptyGraph) {
  HnswGraph g;
  DistanceFunction dist(Metric::kL2, 4);
  float q[4] = {0, 0, 0, 0};
  EXPECT_TRUE(g.Search(nullptr, q, dist, 5, 32).empty());
}

TEST(HnswEdgeTest, SingleNode) {
  float v[4] = {1, 2, 3, 4};
  DistanceFunction dist(Metric::kL2, 4);
  HnswGraph g;
  HnswParams hp;
  g.Build(v, 1, dist, hp);
  auto got = g.Search(v, v, dist, 5, 32);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
}

TEST_F(HnswFixture, WorksAsMbiBlockKind) {
  MbiParams p;
  p.leaf_size = 250;
  p.tau = 0.5;
  p.block_kind = BlockIndexKind::kHnsw;
  p.build.degree = 24;  // -> HNSW M = 12
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      index.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());
  EXPECT_EQ(index.num_blocks(), 15u);  // 8 leaves -> B(8) = 15

  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(
      bsbf.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());

  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = 64;
  double total = 0;
  int count = 0;
  for (TimeWindow w : {TimeWindow{0, 2000}, TimeWindow{300, 1500},
                       TimeWindow{900, 1100}}) {
    for (size_t qi = 0; qi < 10; ++qi) {
      const float* q = queries_.data() + qi * kDim;
      total += RecallAtK(index.Search(q, w, sp, &ctx), bsbf.Search(q, 10, w),
                         10);
      ++count;
    }
  }
  EXPECT_GE(total / count, 0.85);
}

TEST_F(HnswFixture, HnswMbiCheckpointRecoverRoundTrip) {
  MbiParams p;
  p.leaf_size = 500;
  p.block_kind = BlockIndexKind::kHnsw;
  p.build.degree = 16;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      index.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());

  const std::string dir = ::testing::TempDir() + "/hnsw_mbi_ckpt";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(index.Checkpoint(dir).ok());
  auto loaded_result = MbiIndex::Recover(dir);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  auto loaded = std::move(loaded_result).value();
  EXPECT_EQ(loaded->num_blocks(), index.num_blocks());
  EXPECT_EQ(loaded->params().block_kind, BlockIndexKind::kHnsw);

  QueryContext ctx_a(5), ctx_b(5);
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 48;
  TimeWindow w{100, 1800};
  EXPECT_EQ(index.Search(queries_.data(), w, sp, &ctx_a),
            loaded->Search(queries_.data(), w, sp, &ctx_b));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mbi
