// Persistence torture tests: CRC32C, the file abstraction, fault injection,
// framed/atomic files, the tail log, and the crash-consistency property of
// MbiIndex::Checkpoint/Recover — truncation at every byte offset
// and every injected fault must yield either a bit-exact searchable index or
// a clean non-OK Status. Never a crash, an OOM or a silently wrong answer.
//
// Sweeps run with a stride by default; set MBI_TORTURE_EXHAUSTIVE=1 (the CI
// persistence-torture job does) to test every single byte offset.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "index/graph_block_index.h"
#include "mbi/mbi_index.h"
#include "persist/checkpoint.h"
#include "persist/crc32c.h"
#include "persist/fault_injection.h"
#include "persist/file.h"
#include "persist/log.h"
#include "util/check.h"
#include "util/io.h"

namespace mbi {
namespace {

namespace stdfs = std::filesystem;
using persist::FaultInjectingFileSystem;
using persist::FaultPlan;
using persist::FileSystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

size_t SweepStride(size_t dflt) {
  return std::getenv("MBI_TORTURE_EXHAUSTIVE") != nullptr ? 1 : dflt;
}

std::string ReadFileBytes(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  MBI_CHECK(f != nullptr);
  std::string out;
  char buf[4096];
  size_t got;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  MBI_CHECK(f != nullptr);
  MBI_CHECK(fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  fclose(f);
}

constexpr size_t kDim = 4;

std::unique_ptr<MbiIndex> BuildIndex(
    size_t n, BlockIndexKind kind = BlockIndexKind::kGraph,
    Metric metric = Metric::kL2) {
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 21;
  gen.normalize = metric != Metric::kL2;
  SyntheticData data = GenerateSynthetic(gen, n);
  MbiParams p;
  p.leaf_size = 8;
  p.tau = 0.5;
  p.block_kind = kind;
  p.build.degree = 4;
  p.build.seed = 5;
  auto index = std::make_unique<MbiIndex>(kDim, metric, p);
  MBI_CHECK_OK(index->AddBatch(data.vectors.data(), data.timestamps.data(), n));
  return index;
}

// Probe-query equivalence: same committed size and identical results for a
// fixed set of queries and windows under equally seeded contexts.
bool SameAnswers(const MbiIndex& a, const MbiIndex& b) {
  if (a.size() != b.size()) return false;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 21;
  const std::vector<float> queries = GenerateQueries(gen, 4);
  const int64_t n = static_cast<int64_t>(a.size());
  SearchParams sp;
  sp.k = 3;
  sp.max_candidates = 24;
  for (TimeWindow w : {TimeWindow{0, n}, TimeWindow{n / 3, 2 * n / 3 + 1}}) {
    for (size_t qi = 0; qi < 4; ++qi) {
      QueryContext ctx_a(99), ctx_b(99);
      if (a.Search(queries.data() + qi * kDim, w, sp, &ctx_a) !=
          b.Search(queries.data() + qi * kDim, w, sp, &ctx_b)) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(persist::Crc32c("", 0), 0u);
  EXPECT_EQ(persist::Crc32c("123456789", 9), 0xE3069283u);
  const std::string a(32, 'a');
  EXPECT_NE(persist::Crc32c(a.data(), a.size()), 0u);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string s = "hello, checkpoint world";
  for (size_t split = 0; split <= s.size(); ++split) {
    const uint32_t part =
        persist::Crc32cExtend(persist::Crc32c(s.data(), split),
                              s.data() + split, s.size() - split);
    EXPECT_EQ(part, persist::Crc32c(s.data(), s.size()));
  }
}

// ---------------------------------------------------------------------------
// File abstraction + fault injection

TEST(FileSystemTest, PosixBasics) {
  FileSystem* fs = FileSystem::Posix();
  const std::string dir = TempPath("persist_fs");
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  ASSERT_TRUE(fs->CreateDir(dir).ok());  // EEXIST is OK
  const std::string path = dir + "/file";

  auto w = fs->NewWritableFile(path);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->Append("abcdef", 6).ok());
  ASSERT_TRUE(w.value()->WriteAt(1, "XY", 2).ok());
  ASSERT_TRUE(w.value()->Sync().ok());
  ASSERT_TRUE(w.value()->Close().ok());
  ASSERT_TRUE(w.value()->Close().ok());  // idempotent

  EXPECT_TRUE(fs->FileExists(path));
  auto size = fs->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 6u);

  auto r = fs->NewReadableFile(path);
  ASSERT_TRUE(r.ok());
  char buf[6];
  ASSERT_TRUE(r.value()->Read(buf, 6).ok());
  EXPECT_EQ(std::string(buf, 6), "aXYdef");
  EXPECT_FALSE(r.value()->Read(buf, 1).ok());  // past EOF is an error
  ASSERT_TRUE(r.value()->Close().ok());

  const std::string moved = dir + "/file2";
  ASSERT_TRUE(fs->RenameFile(path, moved).ok());
  EXPECT_FALSE(fs->FileExists(path));
  ASSERT_TRUE(fs->TruncateFile(moved, 2).ok());
  EXPECT_EQ(fs->GetFileSize(moved).value(), 2u);
  ASSERT_TRUE(fs->SyncDir(dir).ok());
  ASSERT_TRUE(fs->DeleteFile(moved).ok());
  EXPECT_FALSE(fs->FileExists(moved));

  EXPECT_EQ(persist::DirName("/a/b/c"), "/a/b");
  EXPECT_EQ(persist::DirName("c"), ".");
}

TEST(FaultInjectionTest, WriteFaultSemantics) {
  FaultInjectingFileSystem fs(FileSystem::Posix());
  const std::string path = TempPath("persist_fault_write");

  // Short write: the crossing write persists only up to the trigger.
  FaultPlan plan;
  plan.write_fault = FaultPlan::WriteFault::kShortWrite;
  plan.trigger_bytes = 10;
  fs.SetPlan(plan);
  auto w = fs.NewWritableFile(path);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->Append("01234567", 8).ok());
  const Status short_write = w.value()->Append("89abcdef", 8);
  EXPECT_FALSE(short_write.ok());
  EXPECT_NE(short_write.message().find("injected"), std::string::npos);
  ASSERT_TRUE(w.value()->Close().ok());
  EXPECT_EQ(fs.bytes_written(), 10u);
  EXPECT_EQ(ReadFileBytes(path).size(), 10u);

  // EIO: the crossing write persists nothing.
  plan.write_fault = FaultPlan::WriteFault::kEio;
  fs.SetPlan(plan);
  w = fs.NewWritableFile(path);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->Append("01234567", 8).ok());
  EXPECT_FALSE(w.value()->Append("89abcdef", 8).ok());
  ASSERT_TRUE(w.value()->Close().ok());
  EXPECT_EQ(ReadFileBytes(path).size(), 8u);

  // Disk full: like a short write, with ENOSPC flavor.
  plan.write_fault = FaultPlan::WriteFault::kDiskFull;
  fs.SetPlan(plan);
  w = fs.NewWritableFile(path);
  ASSERT_TRUE(w.ok());
  const Status full = w.value()->Append("0123456789abcdef", 16);
  EXPECT_FALSE(full.ok());
  EXPECT_NE(full.message().find("disk full"), std::string::npos);
  ASSERT_TRUE(w.value()->Close().ok());
  EXPECT_EQ(ReadFileBytes(path).size(), 10u);
}

TEST(FaultInjectionTest, CrashFreezesTheDisk) {
  FaultInjectingFileSystem fs(FileSystem::Posix());
  const std::string path = TempPath("persist_fault_crash");
  FaultPlan plan;
  plan.write_fault = FaultPlan::WriteFault::kCrash;
  plan.trigger_bytes = 4;
  fs.SetPlan(plan);

  auto w = fs.NewWritableFile(path);
  ASSERT_TRUE(w.ok());
  // The crossing write reports OK but persists only the pre-trigger prefix;
  // everything after the crash silently does nothing.
  ASSERT_TRUE(w.value()->Append("0123456789", 10).ok());
  EXPECT_TRUE(fs.crashed());
  ASSERT_TRUE(w.value()->Append("more", 4).ok());
  ASSERT_TRUE(w.value()->Close().ok());
  EXPECT_EQ(ReadFileBytes(path), "0123");

  EXPECT_TRUE(fs.RenameFile(path, path + ".moved").ok());  // silent no-op
  EXPECT_TRUE(FileSystem::Posix()->FileExists(path));
  EXPECT_TRUE(fs.DeleteFile(path).ok());
  EXPECT_TRUE(FileSystem::Posix()->FileExists(path));
  auto post = fs.NewWritableFile(path + ".new");
  ASSERT_TRUE(post.ok());
  ASSERT_TRUE(post.value()->Append("x", 1).ok());
  ASSERT_TRUE(post.value()->Close().ok());
  EXPECT_FALSE(FileSystem::Posix()->FileExists(path + ".new"));
  ASSERT_TRUE(FileSystem::Posix()->DeleteFile(path).ok());
}

TEST(BinaryWriterTest, CloseReportsFlushAndCloseFailuresDistinctly) {
  FaultInjectingFileSystem fs(FileSystem::Posix());
  const std::string path = TempPath("persist_writer_close");

  FaultPlan plan;
  plan.fail_flush = true;
  fs.SetPlan(plan);
  BinaryWriter w;
  ASSERT_TRUE(w.Open(path, &fs).ok());
  ASSERT_TRUE(w.Write<uint64_t>(42).ok());
  const Status flush_fail = w.Close();
  EXPECT_FALSE(flush_fail.ok());
  EXPECT_NE(flush_fail.message().find("flush failed"), std::string::npos);
  EXPECT_TRUE(w.Close().ok());  // idempotent after the first Close

  plan = FaultPlan{};
  plan.fail_close = true;
  fs.SetPlan(plan);
  BinaryWriter w2;
  ASSERT_TRUE(w2.Open(path, &fs).ok());
  ASSERT_TRUE(w2.Write<uint64_t>(42).ok());
  const Status close_fail = w2.Close();
  EXPECT_FALSE(close_fail.ok());
  EXPECT_NE(close_fail.message().find("close failed"), std::string::npos);
  EXPECT_TRUE(w2.Close().ok());
  ASSERT_TRUE(FileSystem::Posix()->DeleteFile(path).ok());
}

TEST(BinaryReaderTest, HugeVectorLengthFailsCleanlyNotBadAlloc) {
  const std::string path = TempPath("persist_huge_vec");
  BinaryWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.Write<uint64_t>(UINT64_MAX / 2).ok());  // absurd count
  ASSERT_TRUE(w.Close().ok());

  BinaryReader r;
  ASSERT_TRUE(r.Open(path).ok());
  std::vector<float> v;
  const Status s = r.ReadVector(&v);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_TRUE(v.empty());
  ASSERT_TRUE(FileSystem::Posix()->DeleteFile(path).ok());
}

// ---------------------------------------------------------------------------
// Tail log

TEST(LogTest, RoundTripAndTornTail) {
  FileSystem* fs = FileSystem::Posix();
  const std::string path = TempPath("persist_log");
  {
    auto f = fs->NewWritableFile(path);
    ASSERT_TRUE(f.ok());
    persist::LogWriter log(std::move(f).value());
    ASSERT_TRUE(log.AddRecord("first", 5).ok());
    ASSERT_TRUE(log.AddRecord("second record", 13).ok());
    ASSERT_TRUE(log.Sync().ok());
    ASSERT_TRUE(log.Close().ok());
  }
  auto replay = persist::ReadLogRecords(fs, path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().records[0], "first");
  EXPECT_EQ(replay.value().records[1], "second record");
  EXPECT_TRUE(replay.value().clean_eof);
  const uint64_t full_bytes = replay.value().valid_bytes;

  // Truncation anywhere inside the second record drops exactly it.
  const std::string bytes = ReadFileBytes(path);
  for (size_t cut = 13 + 1; cut < bytes.size();
       cut += SweepStride(3)) {
    WriteFileBytes(path, bytes.substr(0, cut));
    auto torn = persist::ReadLogRecords(fs, path);
    ASSERT_TRUE(torn.ok());
    ASSERT_EQ(torn.value().records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(torn.value().records[0], "first");
    EXPECT_FALSE(torn.value().clean_eof);
    EXPECT_EQ(torn.value().valid_bytes, 13u);
  }

  // A flipped byte in a record stops replay at the preceding record.
  std::string flipped = bytes;
  flipped[full_bytes - 3] ^= 0xFF;
  WriteFileBytes(path, flipped);
  auto corrupt = persist::ReadLogRecords(fs, path);
  ASSERT_TRUE(corrupt.ok());
  EXPECT_EQ(corrupt.value().records.size(), 1u);
  EXPECT_FALSE(corrupt.value().clean_eof);
  ASSERT_TRUE(fs->DeleteFile(path).ok());
}

// ---------------------------------------------------------------------------
// Atomic + framed files

TEST(CheckpointFileTest, FramedFileRoundTripAndCorruptionDetection) {
  FileSystem* fs = FileSystem::Posix();
  const std::string path = TempPath("persist_framed");
  ASSERT_TRUE(persist::WriteFramedFile(fs, path, "TESTMAG1",
                                       [](BinaryWriter* w) {
                                         return w->Write<uint64_t>(1234);
                                       })
                  .ok());
  uint64_t value = 0;
  ASSERT_TRUE(persist::ReadFramedFile(fs, path, "TESTMAG1",
                                      [&](BinaryReader* r) {
                                        return r->Read<uint64_t>(&value);
                                      })
                  .ok());
  EXPECT_EQ(value, 1234u);
  EXPECT_FALSE(persist::ReadFramedFile(fs, path, "WRONGMAG",
                                       [&](BinaryReader* r) {
                                         return r->Read<uint64_t>(&value);
                                       })
                   .ok());

  // Every truncation and every byte flip is a clean DataLoss.
  const std::string bytes = ReadFileBytes(path);
  const auto parse = [&](BinaryReader* r) { return r->Read<uint64_t>(&value); };
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFileBytes(path, bytes.substr(0, cut));
    const Status s = persist::ReadFramedFile(fs, path, "TESTMAG1", parse);
    EXPECT_FALSE(s.ok()) << "truncated at " << cut;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= 0xFF;
    WriteFileBytes(path, mutated);
    const Status s = persist::ReadFramedFile(fs, path, "TESTMAG1", parse);
    EXPECT_FALSE(s.ok()) << "flipped byte " << i;
  }
  ASSERT_TRUE(fs->DeleteFile(path).ok());
}

TEST(CheckpointFileTest, AtomicWritePreservesOldFileOnEveryFault) {
  FaultInjectingFileSystem fs(FileSystem::Posix());
  const std::string path = TempPath("persist_atomic");
  fs.SetPlan(FaultPlan{});
  const auto fill_old = [](BinaryWriter* w) { return w->Write<uint64_t>(1); };
  ASSERT_TRUE(persist::WriteFramedFile(&fs, path, "TESTMAG1", fill_old).ok());

  // Seed-derived fault campaign instead of a hand-rolled plan table: 32
  // drawn plans mix byte-triggered write faults with one-shot sync/close/
  // rename faults (and the occasional benign no-fault draw). The atomicity
  // property is fault-agnostic: after every attempt the file must read back
  // clean with the value of the last *successful* write — never a torn mix.
  persist::FaultScheduleParams sched;
  sched.seed = 20240807;
  sched.byte_span = 40;  // the framed file is ~28 bytes, so most plans fire
  sched.write_fault_probability = 0.8;
  sched.operation_fault_probability = 0.5;
  sched.allow_crash = false;  // crash zombies are covered by the sweeps below
  persist::FaultScheduleGenerator gen(sched);

  uint64_t expected = 1;
  size_t faulted = 0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const uint64_t next = 2 + static_cast<uint64_t>(attempt);
    const auto fill = [next](BinaryWriter* w) {
      return w->Write<uint64_t>(next);
    };
    fs.SetPlan(gen.Next());
    const Status written = persist::WriteFramedFile(&fs, path, "TESTMAG1", fill);
    fs.SetPlan(FaultPlan{});
    if (written.ok()) {
      expected = next;
    } else {
      ++faulted;
      EXPECT_FALSE(fs.FileExists(path + ".tmp"));  // tmp cleaned up
    }
    uint64_t value = 0;
    ASSERT_TRUE(persist::ReadFramedFile(&fs, path, "TESTMAG1",
                                        [&](BinaryReader* r) {
                                          return r->Read<uint64_t>(&value);
                                        })
                    .ok())
        << "attempt " << attempt;
    EXPECT_EQ(value, expected) << "attempt " << attempt;
  }
  EXPECT_GT(faulted, 0u);  // the campaign actually injected faults
  EXPECT_EQ(gen.plans_drawn(), 32u);
  ASSERT_TRUE(fs.DeleteFile(path).ok());
}

TEST(FaultScheduleTest, SameSeedSamePlans) {
  persist::FaultScheduleParams params;
  params.seed = 99;
  persist::FaultScheduleGenerator a(params);
  persist::FaultScheduleGenerator b(params);
  bool any_fault = false;
  for (int i = 0; i < 64; ++i) {
    const FaultPlan pa = a.Next();
    const FaultPlan pb = b.Next();
    EXPECT_EQ(static_cast<int>(pa.write_fault),
              static_cast<int>(pb.write_fault));
    EXPECT_EQ(pa.trigger_bytes, pb.trigger_bytes);
    EXPECT_EQ(pa.fail_flush, pb.fail_flush);
    EXPECT_EQ(pa.fail_sync, pb.fail_sync);
    EXPECT_EQ(pa.fail_close, pb.fail_close);
    EXPECT_EQ(pa.fail_rename, pb.fail_rename);
    any_fault |= pa.write_fault != FaultPlan::WriteFault::kNone;
  }
  EXPECT_TRUE(any_fault);  // defaults draw write faults at p=0.7

  // A different seed diverges somewhere in the stream.
  persist::FaultScheduleParams other = params;
  other.seed = 100;
  persist::FaultScheduleGenerator c(other);
  persist::FaultScheduleGenerator d(params);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    const FaultPlan pc = c.Next();
    const FaultPlan pd = d.Next();
    diverged |= pc.trigger_bytes != pd.trigger_bytes ||
                pc.write_fault != pd.write_fault;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultScheduleTest, NoCrashPlansWhenDisallowed) {
  persist::FaultScheduleParams params;
  params.seed = 7;
  params.write_fault_probability = 1.0;
  params.allow_crash = false;
  persist::FaultScheduleGenerator gen(params);
  for (int i = 0; i < 256; ++i) {
    EXPECT_NE(gen.Next().write_fault, FaultPlan::WriteFault::kCrash);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / Recover

// Recovered store bits and block graphs equal the original's.
void ExpectSameStoreAndGraphs(const MbiIndex& a, const MbiIndex& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.store().dim(), b.store().dim());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.store().GetTimestamp(i), b.store().GetTimestamp(i));
    EXPECT_EQ(std::memcmp(a.store().GetVector(i), b.store().GetVector(i),
                          a.store().dim() * sizeof(float)),
              0)
        << "row " << i;
  }
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (size_t j = 0; j < a.num_blocks(); ++j) {
    EXPECT_EQ(a.block(j).range(), b.block(j).range());
    if (a.params().block_kind == BlockIndexKind::kGraph) {
      EXPECT_TRUE(static_cast<const GraphBlockIndex&>(a.block(j)).graph() ==
                  static_cast<const GraphBlockIndex&>(b.block(j)).graph())
          << "block " << j;
    }
  }
}

TEST(PersistCheckpointTest, RoundTripWithCommittedTail) {
  const std::string dir = TempPath("persist_ckpt_rt");
  for (BlockIndexKind kind : {BlockIndexKind::kGraph, BlockIndexKind::kFlat,
                              BlockIndexKind::kHnsw}) {
    for (Metric metric :
         {Metric::kL2, Metric::kAngular, Metric::kInnerProduct}) {
      SCOPED_TRACE(::testing::Message() << "kind " << static_cast<int>(kind)
                                        << " metric "
                                        << static_cast<int>(metric));
      auto index = BuildIndex(52, kind, metric);  // covered 48, tail 4
      stdfs::remove_all(dir);
      ASSERT_TRUE(index->Checkpoint(dir).ok());
      auto recovered = MbiIndex::Recover(dir);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      const MbiIndex& r = *recovered.value();
      EXPECT_EQ(r.params().block_kind, kind);
      EXPECT_EQ(r.store().metric(), metric);
      ExpectSameStoreAndGraphs(*index, r);
      EXPECT_TRUE(SameAnswers(*index, r));

      // A window inside the partial leaf is answered by one exact scan of
      // the replayed tail.
      QueryContext ctx;
      SearchParams sp;
      sp.k = 3;
      MbiQueryStats stats;
      r.Search(r.store().GetVector(49), TimeWindow{48, 52}, sp, &ctx,
               {.stats = &stats});
      EXPECT_EQ(stats.exact_blocks, 1u);
      EXPECT_EQ(stats.graph_blocks, 0u);
    }
  }

  // An empty index round-trips too.
  MbiParams p;
  p.leaf_size = 8;
  MbiIndex empty(kDim, Metric::kL2, p);
  stdfs::remove_all(dir);
  ASSERT_TRUE(empty.Checkpoint(dir).ok());
  auto recovered = MbiIndex::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->size(), 0u);
  EXPECT_EQ(recovered.value()->num_blocks(), 0u);
  stdfs::remove_all(dir);
}

// Every MbiParams field survives Checkpoint/Recover, serving knobs included:
// a recovered shard keeps its admission limits and ingest cap.
TEST(PersistCheckpointTest, RecoverRestoresEveryParam) {
  MbiParams p;
  p.leaf_size = 8;
  p.tau = 0.375;
  p.block_kind = BlockIndexKind::kFlat;
  p.build.degree = 5;
  p.build.exact_threshold = 17;
  p.build.rho = 0.8;
  p.build.delta = 0.01;
  p.build.max_iterations = 3;
  p.build.seed = 77;
  p.num_threads = 2;
  p.adaptive_block_search = true;
  p.max_inflight_queries = 3;
  p.shed_retry_after_seconds = 0.25;
  p.max_blocks_per_add = 1;
  MbiIndex index(kDim, Metric::kAngular, p);
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 21;
  gen.normalize = true;
  SyntheticData data = GenerateSynthetic(gen, 20);
  ASSERT_TRUE(
      index.AddBatch(data.vectors.data(), data.timestamps.data(), 20).ok());

  const std::string dir = TempPath("persist_ckpt_params");
  stdfs::remove_all(dir);
  ASSERT_TRUE(index.Checkpoint(dir).ok());
  auto recovered = MbiIndex::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const MbiParams& q = recovered.value()->params();
  EXPECT_EQ(q.leaf_size, p.leaf_size);
  EXPECT_EQ(q.tau, p.tau);
  EXPECT_EQ(q.block_kind, p.block_kind);
  EXPECT_EQ(q.build.degree, p.build.degree);
  EXPECT_EQ(q.build.exact_threshold, p.build.exact_threshold);
  EXPECT_EQ(q.build.rho, p.build.rho);
  EXPECT_EQ(q.build.delta, p.build.delta);
  EXPECT_EQ(q.build.max_iterations, p.build.max_iterations);
  EXPECT_EQ(q.build.seed, p.build.seed);
  EXPECT_EQ(q.num_threads, p.num_threads);
  EXPECT_EQ(q.adaptive_block_search, p.adaptive_block_search);
  EXPECT_EQ(q.max_inflight_queries, p.max_inflight_queries);
  EXPECT_EQ(q.shed_retry_after_seconds, p.shed_retry_after_seconds);
  EXPECT_EQ(q.max_blocks_per_add, p.max_blocks_per_add);
  EXPECT_EQ(recovered.value()->store().metric(), Metric::kAngular);
  stdfs::remove_all(dir);
}

TEST(PersistCheckpointTest, SecondCheckpointReusesSegments) {
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 21;
  SyntheticData data = GenerateSynthetic(gen, 80);
  MbiParams p;
  p.leaf_size = 8;
  p.build.degree = 4;
  p.build.seed = 5;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      index.AddBatch(data.vectors.data(), data.timestamps.data(), 52).ok());

  const std::string dir = TempPath("persist_ckpt_incr");
  stdfs::remove_all(dir);
  FaultInjectingFileSystem fs(FileSystem::Posix());
  fs.SetPlan(FaultPlan{});
  ASSERT_TRUE(index.Checkpoint(dir, &fs).ok());
  const size_t blocks_before = index.num_blocks();

  // Grow 52 -> 80 (3 more full leaves) and checkpoint again: only the new
  // segments may be written; existing ones are reused byte-for-byte.
  ASSERT_TRUE(index
                  .AddBatch(data.vectors.data() + 52 * kDim,
                            data.timestamps.data() + 52, 28)
                  .ok());
  fs.SetPlan(FaultPlan{});
  ASSERT_TRUE(index.Checkpoint(dir, &fs).ok());
  size_t vec_writes = 0, blk_writes = 0;
  for (const std::string& f : fs.files_created()) {
    vec_writes += f.find("/vec-") != std::string::npos;
    blk_writes += f.find("/blk-") != std::string::npos;
  }
  EXPECT_EQ(vec_writes, 80 / 8 - 52 / 8);  // only leaves 6..9
  EXPECT_EQ(blk_writes, index.num_blocks() - blocks_before);

  auto recovered = MbiIndex::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(SameAnswers(index, *recovered.value()));
  stdfs::remove_all(dir);
}

TEST(PersistCheckpointTest, RecoverThenContinueMatchesSerialIngest) {
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 21;
  SyntheticData data = GenerateSynthetic(gen, 70);
  MbiParams p;
  p.leaf_size = 8;
  p.build.degree = 4;
  p.build.seed = 5;

  MbiIndex serial(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      serial.AddBatch(data.vectors.data(), data.timestamps.data(), 70).ok());

  MbiIndex prefix(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      prefix.AddBatch(data.vectors.data(), data.timestamps.data(), 45).ok());
  const std::string dir = TempPath("persist_ckpt_cont");
  stdfs::remove_all(dir);
  ASSERT_TRUE(prefix.Checkpoint(dir).ok());

  auto recovered = MbiIndex::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered.value()
                  ->AddBatch(data.vectors.data() + 45 * kDim,
                             data.timestamps.data() + 45, 25)
                  .ok());
  // Deterministic seeded builds: the recovered-then-continued index answers
  // exactly like one that ingested the whole stream in a single process.
  EXPECT_TRUE(SameAnswers(serial, *recovered.value()));
  stdfs::remove_all(dir);
}

// The first `n` rows of one fixed 60-row stream. The sweeps below
// checkpoint a 36-row prefix (covered 32) and then the whole stream (covered
// 56), so the second checkpoint reuses the first one's segments.
std::unique_ptr<MbiIndex> BuildStreamPrefix(size_t n) {
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 21;
  SyntheticData data = GenerateSynthetic(gen, 60);
  MbiParams p;
  p.leaf_size = 8;
  p.build.degree = 4;
  p.build.seed = 5;
  auto index = std::make_unique<MbiIndex>(kDim, Metric::kL2, p);
  MBI_CHECK_OK(index->AddBatch(data.vectors.data(), data.timestamps.data(), n));
  return index;
}

bool HasTmpFiles(const std::string& dir) {
  for (const auto& entry : stdfs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return true;
  }
  return false;
}

TEST(PersistCheckpointTest, CrashSweepDuringCheckpointRecoversOldOrNew) {
  // ref1: the state of the first checkpoint. ref2: of the second.
  auto ref1 = BuildStreamPrefix(36);
  auto ref2 = BuildStreamPrefix(60);
  const std::string dir = TempPath("persist_ckpt_crash");
  FaultInjectingFileSystem fs(FileSystem::Posix());

  // Measure the second checkpoint's write volume once.
  stdfs::remove_all(dir);
  ASSERT_TRUE(ref1->Checkpoint(dir).ok());
  fs.SetPlan(FaultPlan{});
  ASSERT_TRUE(ref2->Checkpoint(dir, &fs).ok());
  const uint64_t total_bytes = fs.bytes_written();
  ASSERT_GT(total_bytes, 0u);

  for (uint64_t t = 0; t < total_bytes; t += SweepStride(53)) {
    stdfs::remove_all(dir);
    ASSERT_TRUE(ref1->Checkpoint(dir).ok());
    FaultPlan plan;
    plan.write_fault = FaultPlan::WriteFault::kCrash;
    plan.trigger_bytes = t;
    fs.SetPlan(plan);
    ASSERT_TRUE(ref2->Checkpoint(dir, &fs).ok());  // the zombie reports OK

    auto recovered = MbiIndex::Recover(dir);  // "reboot" on the real fs
    ASSERT_TRUE(recovered.ok())
        << "crash at byte " << t << ": " << recovered.status().ToString();
    EXPECT_TRUE(SameAnswers(*ref1, *recovered.value()) ||
                SameAnswers(*ref2, *recovered.value()))
        << "crash at byte " << t << " recovered neither checkpoint state";
  }
  stdfs::remove_all(dir);
}

// A second checkpoint that fails — short write, EIO or disk full at any
// byte, or a one-shot flush/sync/close/rename failure — reports the error,
// leaves no tmp file behind and leaves the first checkpoint recoverable.
TEST(PersistCheckpointTest, WriteFaultsDuringCheckpointPreserveOldState) {
  auto ref1 = BuildStreamPrefix(36);
  auto ref2 = BuildStreamPrefix(60);
  const std::string dir = TempPath("persist_ckpt_fault");
  FaultInjectingFileSystem fs(FileSystem::Posix());
  stdfs::remove_all(dir);
  ASSERT_TRUE(ref1->Checkpoint(dir).ok());
  fs.SetPlan(FaultPlan{});
  ASSERT_TRUE(ref2->Checkpoint(dir, &fs).ok());
  const uint64_t total_bytes = fs.bytes_written();

  // Each attempt starts from the first checkpoint alone: segments a failed
  // attempt published would otherwise be reused by the next one.
  const auto expect_failure_keeps_first = [&](const FaultPlan& plan,
                                              const std::string& what) {
    stdfs::remove_all(dir);
    ASSERT_TRUE(ref1->Checkpoint(dir).ok());
    fs.SetPlan(plan);
    EXPECT_FALSE(ref2->Checkpoint(dir, &fs).ok()) << what;
    fs.SetPlan(FaultPlan{});
    EXPECT_FALSE(HasTmpFiles(dir)) << what;
    auto recovered = MbiIndex::Recover(dir);
    ASSERT_TRUE(recovered.ok()) << what << ": "
                                << recovered.status().ToString();
    EXPECT_TRUE(SameAnswers(*ref1, *recovered.value())) << what;
  };
  for (auto fault : {FaultPlan::WriteFault::kShortWrite,
                     FaultPlan::WriteFault::kEio,
                     FaultPlan::WriteFault::kDiskFull}) {
    for (uint64_t t = 0; t < total_bytes; t += SweepStride(97)) {
      FaultPlan plan;
      plan.write_fault = fault;
      plan.trigger_bytes = t;
      expect_failure_keeps_first(
          plan, "fault " + std::to_string(static_cast<int>(fault)) +
                    " at byte " + std::to_string(t));
    }
  }
  for (int which = 0; which < 4; ++which) {
    FaultPlan plan;
    plan.fail_flush = which == 0;
    plan.fail_sync = which == 1;
    plan.fail_close = which == 2;
    plan.fail_rename = which == 3;
    expect_failure_keeps_first(plan, "one-shot fault " + std::to_string(which));
  }
  stdfs::remove_all(dir);
}

TEST(PersistCheckpointTest, FileTruncationTortureFailsCleanOrExact) {
  auto index = BuildIndex(52);
  const std::string dir = TempPath("persist_ckpt_trunc");
  stdfs::remove_all(dir);
  ASSERT_TRUE(index->Checkpoint(dir).ok());

  std::vector<std::string> targets = {dir + "/MANIFEST",
                                      dir + "/segments/vec-0.seg",
                                      dir + "/segments/blk-0.seg",
                                      dir + "/wal-48.log"};
  for (const std::string& target : targets) {
    ASSERT_TRUE(FileSystem::Posix()->FileExists(target)) << target;
    const std::string bytes = ReadFileBytes(target);
    for (size_t cut = 0; cut < bytes.size(); cut += SweepStride(1)) {
      WriteFileBytes(target, bytes.substr(0, cut));
      auto recovered = MbiIndex::Recover(dir);
      if (recovered.ok()) {
        EXPECT_TRUE(SameAnswers(*index, *recovered.value()))
            << target << " truncated at " << cut;
      }
      // Either outcome is fine as long as failures are clean statuses —
      // reaching this line means no crash/abort/OOM occurred.
    }
    // Byte-flip pass over the same file.
    for (size_t i = 0; i < bytes.size(); i += SweepStride(1)) {
      std::string mutated = bytes;
      mutated[i] ^= 0xFF;
      WriteFileBytes(target, mutated);
      auto recovered = MbiIndex::Recover(dir);
      if (recovered.ok()) {
        EXPECT_TRUE(SameAnswers(*index, *recovered.value()))
            << target << " flipped at " << i;
      }
    }
    WriteFileBytes(target, bytes);  // restore for the next target
    auto sane = MbiIndex::Recover(dir);
    ASSERT_TRUE(sane.ok()) << sane.status().ToString();
  }

  // A deferred read-side close error fails Recover: the bytes it parsed
  // cannot be trusted.
  FaultInjectingFileSystem fs(FileSystem::Posix());
  FaultPlan plan;
  plan.fail_read_close = true;
  fs.SetPlan(plan);
  EXPECT_FALSE(MbiIndex::Recover(dir, &fs).ok());

  // A garbage MANIFEST, one cut in half and one stamped with the previous
  // manifest version's magic are all DataLoss.
  const std::string manifest = ReadFileBytes(dir + "/MANIFEST");
  std::string retired = manifest;
  retired.replace(0, 8, "MBIMAN01");
  for (const std::string& bytes :
       {std::string("this is not a manifest"),
        manifest.substr(0, manifest.size() / 2), retired}) {
    WriteFileBytes(dir + "/MANIFEST", bytes);
    auto rejected = MbiIndex::Recover(dir);
    ASSERT_FALSE(rejected.ok()) << bytes.size();
    EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss)
        << rejected.status().ToString();
  }
  WriteFileBytes(dir + "/MANIFEST", manifest);

  // A deleted segment or a missing directory is a clean error, not a crash.
  ASSERT_TRUE(FileSystem::Posix()->DeleteFile(dir + "/segments/blk-0.seg").ok());
  EXPECT_FALSE(MbiIndex::Recover(dir).ok());
  EXPECT_FALSE(MbiIndex::Recover("/nonexistent/mbi-checkpoint").ok());
  stdfs::remove_all(dir);
}

}  // namespace
}  // namespace mbi
