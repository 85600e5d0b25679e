// MbiIndex serialization: round-trip fidelity and corruption handling.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "index/graph_block_index.h"
#include "mbi/mbi_index.h"

namespace mbi {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::unique_ptr<MbiIndex> BuildSample(size_t n, Metric metric = Metric::kL2) {
  SyntheticParams gen;
  gen.dim = 8;
  gen.seed = 13;
  gen.normalize = metric == Metric::kAngular;
  SyntheticData data = GenerateSynthetic(gen, n);
  MbiParams p;
  p.leaf_size = 16;
  p.tau = 0.4;
  p.build.degree = 8;
  p.build.exact_threshold = 1 << 20;
  auto index = std::make_unique<MbiIndex>(8, metric, p);
  MBI_CHECK_OK(
      index->AddBatch(data.vectors.data(), data.timestamps.data(), n));
  return index;
}

TEST(MbiIoTest, RoundTripPreservesEverything) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(150);
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_roundtrip.idx");
  ASSERT_TRUE(original.Save(path).ok());

  auto loaded_result = MbiIndex::Load(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  std::unique_ptr<MbiIndex> loaded = std::move(loaded_result).value();

  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_blocks(), original.num_blocks());
  EXPECT_EQ(loaded->params().leaf_size, original.params().leaf_size);
  EXPECT_DOUBLE_EQ(loaded->params().tau, original.params().tau);
  EXPECT_EQ(loaded->store().metric(), original.store().metric());
  EXPECT_EQ(loaded->store().dim(), original.store().dim());

  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->store().GetTimestamp(i), original.store().GetTimestamp(i));
    for (size_t d = 0; d < 8; ++d) {
      EXPECT_FLOAT_EQ(loaded->store().GetVector(i)[d],
                      original.store().GetVector(i)[d]);
    }
  }
  for (size_t b = 0; b < original.num_blocks(); ++b) {
    const auto& ga = static_cast<const GraphBlockIndex&>(original.block(b));
    const auto& gb = static_cast<const GraphBlockIndex&>(loaded->block(b));
    EXPECT_EQ(ga.range(), gb.range());
    EXPECT_TRUE(ga.graph() == gb.graph());
  }
  std::remove(path.c_str());
}

TEST(MbiIoTest, LoadedIndexAnswersQueriesIdentically) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(200, Metric::kAngular);
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_query.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = std::move(MbiIndex::Load(path)).value();

  SyntheticParams gen;
  gen.dim = 8;
  gen.seed = 13;
  gen.normalize = true;
  auto queries = GenerateQueries(gen, 5);

  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 32;
  for (TimeWindow w : {TimeWindow{0, 200}, TimeWindow{50, 120}}) {
    for (size_t qi = 0; qi < 5; ++qi) {
      // Same seeds -> identical random entry points -> identical traversal.
      QueryContext ctx_a(42), ctx_b(42);
      SearchResult a = original.Search(queries.data() + qi * 8, w, sp, &ctx_a);
      SearchResult b = loaded->Search(queries.data() + qi * 8, w, sp, &ctx_b);
      EXPECT_EQ(a, b);
    }
  }
  std::remove(path.c_str());
}

TEST(MbiIoTest, PartialLeafSurvivesRoundTrip) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(77);  // 4 full + partial
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_partial.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = std::move(MbiIndex::Load(path)).value();
  EXPECT_EQ(loaded->size(), 77u);
  EXPECT_EQ(loaded->num_blocks(), original.num_blocks());
  // A window inside the tail must be searched exactly.
  QueryContext ctx;
  SearchParams sp;
  sp.k = 3;
  MbiQueryStats stats;
  loaded->Search(loaded->store().GetVector(70), TimeWindow{70, 77}, sp, &ctx,
                 {.stats = &stats});
  EXPECT_EQ(stats.exact_blocks, 1u);
}

TEST(MbiIoTest, LoadRejectsGarbage) {
  // Plain garbage, and a current file stamped with the retired MBIX0001
  // magic: neither is a format Load reads.
  std::string retired;
  {
    const std::string saved = TempPath("mbi_retired_magic_src.idx");
    ASSERT_TRUE(BuildSample(40)->Save(saved).ok());
    std::ifstream in(saved, std::ios::binary);
    retired.assign(std::istreambuf_iterator<char>(in), {});
    std::remove(saved.c_str());
    ASSERT_GT(retired.size(), 8u);
    retired.replace(0, 8, "MBIX0001");
  }
  const std::string path = TempPath("mbi_garbage.idx");
  for (const std::string& bytes : {std::string("this is not an index"),
                                   retired}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto result = MbiIndex::Load(path);
    ASSERT_FALSE(result.ok()) << bytes.substr(0, 8);
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(result.status().ToString().find("not an MBI index file"),
              std::string::npos)
        << result.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(MbiIoTest, LoadRejectsMissingFile) {
  auto result = MbiIndex::Load("/nonexistent/mbi.idx");
  EXPECT_FALSE(result.ok());
}

TEST(MbiIoTest, LoadRejectsTruncatedFile) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(100);
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_trunc.idx");
  ASSERT_TRUE(original.Save(path).ok());
  // Truncate to half.
  FILE* f = fopen(path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  long size = ftell(f);
  fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto result = MbiIndex::Load(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(MbiIoTest, EmptyIndexRoundTrips) {
  MbiParams p;
  p.leaf_size = 8;
  MbiIndex original(4, Metric::kL2, p);
  std::string path = TempPath("mbi_empty.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = std::move(MbiIndex::Load(path)).value();
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->num_blocks(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mbi
