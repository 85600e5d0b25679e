// Concurrency contract coverage. MbiIndex supports one writer thread
// (Add/AddBatch) running concurrently with any number of reader threads:
// the store publishes its committed size atomically over stable chunked
// storage, and the block forest is swapped in as an immutable snapshot after
// each merge cascade. Readers pin a ReadView and see a consistent prefix —
// committed vectors plus fully built blocks — with the tail exact-scanned.
// These tests cover parallel readers, and a live writer interleaving Add
// against querying threads with bit-exact replay on captured views; run them
// under scripts/sanitize_smoke.sh --tsan for the race check.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/sf_index.h"
#include "data/synthetic.h"
#include "mbi/mbi_index.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

class ConcurrencyFixture : public ::testing::Test {
 protected:
  static constexpr size_t kN = 2000;
  static constexpr size_t kDim = 12;

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.seed = 808;
    data_ = GenerateSynthetic(gen, kN);
    queries_ = GenerateQueries(gen, 32);

    MbiParams p;
    p.leaf_size = 250;
    p.build.degree = 12;
    p.build.exact_threshold = 512;
    index_ = std::make_unique<MbiIndex>(kDim, Metric::kL2, p);
    ASSERT_TRUE(
        index_->AddBatch(data_.vectors.data(), data_.timestamps.data(), kN)
            .ok());
  }

  SyntheticData data_;
  std::vector<float> queries_;
  std::unique_ptr<MbiIndex> index_;
};

TEST_F(ConcurrencyFixture, ParallelReadersMatchSerialResults) {
  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = 64;
  sp.num_entry_points = 4;
  const TimeWindow w{200, 1700};

  // Serial reference with a fixed per-query seed.
  std::vector<SearchResult> expected(32);
  for (size_t qi = 0; qi < 32; ++qi) {
    QueryContext ctx(1000 + qi);
    expected[qi] = index_->Search(queries_.data() + qi * kDim, w, sp, &ctx);
  }

  // 4 threads, each re-running a disjoint slice with the same seeds.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t qi = t; qi < 32; qi += 4) {
        QueryContext ctx(1000 + qi);
        SearchResult got =
            index_->Search(queries_.data() + qi * kDim, w, sp, &ctx);
        if (got != expected[qi]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyFixture, HammeringManyWindowsConcurrently) {
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 48;
  std::atomic<size_t> total_results{0};
  std::vector<std::thread> threads;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx(t * 7 + 1);
      Rng rng(t);
      for (int i = 0; i < 200; ++i) {
        int64_t a = static_cast<int64_t>(rng.NextBounded(kN - 10));
        int64_t b = a + 1 + static_cast<int64_t>(rng.NextBounded(kN - a - 1));
        SearchResult r = index_->Search(
            queries_.data() + (i % 32) * kDim, TimeWindow{a, b}, sp, &ctx);
        total_results.fetch_add(r.size());
        // Every hit must respect its window.
        for (const Neighbor& nb : r) {
          Timestamp ts = index_->store().GetTimestamp(nb.id);
          if (ts < a || ts >= b) {
            total_results.fetch_add(1000000);  // poison on violation
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(total_results.load(), 0u);
  EXPECT_LT(total_results.load(), 1000000u);
}

TEST_F(ConcurrencyFixture, WriterInterleavedWithReaders) {
  // A live index: preload half, then one writer thread Adds the rest (merge
  // cascades included) while 4 reader threads query random windows. Readers
  // assert (a) publication order: a view's committed size always covers its
  // snapshot, (b) window correctness, (c) no result beyond the pinned
  // prefix. Captured (view, seed) samples are replayed serially afterwards
  // and must reproduce the concurrent results bit for bit — the strongest
  // form of the recall-parity requirement.
  MbiParams p;
  p.leaf_size = 250;
  p.build.degree = 12;
  p.build.exact_threshold = 512;
  MbiIndex live(kDim, Metric::kL2, p);
  const size_t kPreload = kN / 2;
  ASSERT_TRUE(
      live.AddBatch(data_.vectors.data(), data_.timestamps.data(), kPreload)
          .ok());

  SearchParams sp;
  sp.k = 8;
  sp.max_candidates = 48;
  sp.num_entry_points = 4;

  struct Sample {
    ReadView view;
    TimeWindow window;
    uint64_t seed;
    size_t query;
    SearchResult result;
  };

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::vector<Sample>> samples(kReaders);

  std::vector<std::thread> readers;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(9000 + t);
      int iter = 0;
      // Keep querying until the writer finishes, with a floor so every
      // reader overlaps real ingestion even on slow machines.
      while (!done.load(std::memory_order_acquire) || iter < 64) {
        const ReadView view = live.AcquireReadView();
        if (view.num_vectors <
            static_cast<size_t>(view.snapshot->covered_end)) {
          violations.fetch_add(1000);  // broken publication ordering
        }
        const int64_t n = static_cast<int64_t>(view.num_vectors);
        const int64_t a = static_cast<int64_t>(rng.NextBounded(n));
        const int64_t b = a + 1 + static_cast<int64_t>(rng.NextBounded(n - a));
        const TimeWindow w{a, b};
        const size_t qi = rng.NextBounded(32);
        const uint64_t seed = 77000 + static_cast<uint64_t>(t) * 1000 + iter;
        QueryContext ctx(seed);
        SearchResult r = live.Search(queries_.data() + qi * kDim, w, sp, &ctx,
                                     {.view = &view});
        for (const Neighbor& nb : r) {
          const Timestamp ts = live.store().GetTimestamp(nb.id);
          if (ts < w.start || ts >= w.end) violations.fetch_add(1);
          if (nb.id >= static_cast<VectorId>(view.num_vectors)) {
            violations.fetch_add(1);
          }
        }
        if (iter % 8 == 0) {
          samples[t].push_back(Sample{view, w, seed, qi, std::move(r)});
        }
        ++iter;
      }
    });
  }

  for (size_t i = kPreload; i < kN; ++i) {
    ASSERT_TRUE(
        live.Add(data_.vectors.data() + i * kDim, data_.timestamps[i]).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(live.size(), kN);

  // Serial replay: same view + same seed => identical results, regardless of
  // everything the writer did since.
  size_t replayed = 0;
  for (const auto& per_thread : samples) {
    for (const Sample& s : per_thread) {
      QueryContext ctx(s.seed);
      SearchResult again = live.Search(queries_.data() + s.query * kDim,
                                       s.window, sp, &ctx, {.view = &s.view});
      EXPECT_EQ(again, s.result);
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
}

TEST_F(ConcurrencyFixture, SfConcurrentReaders) {
  GraphBuildParams build;
  build.degree = 12;
  SfIndex sf(kDim, Metric::kL2, build);
  ASSERT_TRUE(
      sf.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());
  sf.Build();

  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 48;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx(t);
      for (int i = 0; i < 100; ++i) {
        SearchResult r = sf.Search(queries_.data() + (i % 32) * kDim,
                                   TimeWindow{100, 1900}, sp, &ctx);
        for (const Neighbor& nb : r) {
          Timestamp ts = sf.store().GetTimestamp(nb.id);
          if (ts < 100 || ts >= 1900) violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace mbi
