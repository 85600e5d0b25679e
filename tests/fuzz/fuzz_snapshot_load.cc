// Fuzz harness for the two untrusted-bytes parsers in the persistence
// layer: checkpoint recovery (MbiIndex::Recover) and the CRC-framed WAL tail
// replay (persist::ReadLogRecords).
//
// Input format: byte 0 selects the target. Even = checkpoint: the remaining
// bytes replace one file of a real checkpoint directory built at startup —
// MANIFEST, segments/vec-0.seg or segments/blk-0.seg for byte 0 / 2 % 3 =
// 0, 1, 2 — and Recover runs on the directory. Odd = WAL: the remaining
// bytes are the log image handed to ReadLogRecords. Both parsers promise
// that arbitrary corruption yields a clean non-OK Status — never a crash,
// sanitizer fault, unbounded allocation or wrong-but-OK result — so the
// harness's only assertions are those invariants.
//
// Build modes:
//   * with Clang and -fsanitize=fuzzer (MBI_FUZZER_DRIVER defined), libFuzzer
//     provides main() and drives LLVMFuzzerTestOneInput;
//   * otherwise a standalone main() runs the deterministic smoke: it
//     generates the seed corpus from real Checkpoint/LogWriter output and
//     replays each seed plus a few hundred single-byte/truncation mutations
//     derived from a fixed mbi::Rng stream. This is what CI's fuzz_smoke
//     ctest runs under MBI_SANITIZE, and it doubles as
//     `--make-corpus <dir>` for exporting seeds to a real fuzzing run.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "data/synthetic.h"
#include "mbi/mbi_index.h"
#include "persist/file.h"
#include "persist/log.h"
#include "util/check.h"
#include "util/rng.h"

namespace mbi {
namespace {

// In-memory ReadableFile so WAL replay needs no filesystem round-trip.
class MemReadableFile : public persist::ReadableFile {
 public:
  MemReadableFile(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  Status Read(void* out, size_t size) override {
    if (size > size_ - pos_) {
      return Status::DataLoss("short read past end of buffer");
    }
    // mbi-lint: allow(unchecked-memcpy) — length bounds-checked just above
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  Status Skip(uint64_t count) override {
    if (count > size_ - pos_) {
      return Status::DataLoss("skip past end of buffer");
    }
    pos_ += static_cast<size_t>(count);
    return Status::Ok();
  }

  uint64_t Size() const override { return size_; }
  Status Close() override { return Status::Ok(); }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Per-process scratch paths under $TMPDIR (default /tmp).
std::string ScratchPath(const std::string& name) {
  const char* tmp = ::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/mbi_fuzz_" + name +
         "." + std::to_string(::getpid());
}

// The checkpoint files a checkpoint-mode input can stand in for.
const char* const kCheckpointFiles[] = {"MANIFEST", "segments/vec-0.seg",
                                        "segments/blk-0.seg"};

// A real checkpoint of a small deterministic index (seven full leaves plus
// an eight-row tail log), written once per process. Returns its directory.
const std::string& CheckpointDir() {
  static const std::string* dir = [] {
    auto* path = new std::string(ScratchPath("checkpoint"));
    std::filesystem::remove_all(*path);
    SyntheticParams gen;
    gen.dim = 8;
    gen.seed = 13;
    SyntheticData data = GenerateSynthetic(gen, 120);
    MbiParams p;
    p.leaf_size = 16;
    p.tau = 0.4;
    p.build.degree = 8;
    MbiIndex index(8, Metric::kL2, p);
    MBI_CHECK_OK(
        index.AddBatch(data.vectors.data(), data.timestamps.data(), 120));
    MBI_CHECK_OK(index.Checkpoint(*path));
    return path;
  }();
  return *dir;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MBI_CHECK(f != nullptr);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const uint8_t* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  MBI_CHECK(f != nullptr);
  MBI_CHECK(std::fwrite(data, 1, size, f) == size);
  std::fclose(f);
}

void FuzzCheckpointRecover(uint8_t selector, const uint8_t* data,
                           size_t size) {
  const std::string target =
      CheckpointDir() + "/" + kCheckpointFiles[selector / 2 % 3];
  const std::vector<uint8_t> original = ReadAll(target);
  WriteAll(target, data, size);
  auto loaded = MbiIndex::Recover(CheckpointDir());
  WriteAll(target, original.data(), original.size());
  if (loaded.ok()) {
    // A recovery that claims success must hand back a usable index: the
    // accessors below would trip sanitizers on dangling or half-built
    // state, and a recovered index must answer a query without faulting.
    const MbiIndex& index = *loaded.value();
    MbiStats stats = index.GetStats();
    MBI_CHECK(stats.num_vectors == index.size());
    if (index.size() > 0) {
      std::vector<float> query(index.store().GetVector(0),
                               index.store().GetVector(0) +
                                   index.store().dim());
      SearchParams search;
      search.k = 4;
      QueryContext ctx(7);
      SearchResult result =
          index.Search(query.data(), TimeWindow::All(), search, &ctx);
      MBI_CHECK(result.size() <= search.k);
    }
  }
}

void FuzzWalReplay(const uint8_t* data, size_t size) {
  MemReadableFile file(data, size);
  auto replay = persist::ReadLogRecords(&file);
  if (!replay.ok()) return;
  const persist::LogReplay& log = std::move(replay).value();
  // The clean prefix must frame-account exactly: 8 bytes of header per
  // record plus the payloads, never more than the input itself.
  uint64_t framed = 0;
  for (const std::string& record : log.records) {
    framed += 8 + record.size();
  }
  MBI_CHECK(framed == log.valid_bytes);
  MBI_CHECK(log.valid_bytes <= size);
  if (log.clean_eof) {
    MBI_CHECK(log.valid_bytes == size);
  }
}

void RunOne(const uint8_t* data, size_t size) {
  if (size == 0) return;
  if (data[0] % 2 == 0) {
    FuzzCheckpointRecover(data[0], data + 1, size - 1);
  } else {
    FuzzWalReplay(data + 1, size - 1);
  }
}

}  // namespace
}  // namespace mbi

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  mbi::RunOne(data, size);
  return 0;
}

#ifndef MBI_FUZZER_DRIVER

namespace mbi {
namespace {

// Builds the seed corpus from real writer output so the fuzzer starts at
// valid inputs instead of spending its budget rediscovering the framing.
std::vector<std::vector<uint8_t>> MakeSeeds() {
  std::vector<std::vector<uint8_t>> seeds;

  // Seeds 1-3: each replaceable file of the genuine checkpoint, as is.
  for (uint8_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> seed{static_cast<uint8_t>(2 * i)};
    const std::vector<uint8_t> file =
        ReadAll(CheckpointDir() + "/" + kCheckpointFiles[i]);
    seed.insert(seed.end(), file.begin(), file.end());
    seeds.push_back(std::move(seed));
  }

  // Seed 4: a genuine WAL with mixed-size records; seed 5: the same WAL
  // torn mid-record, the shape crash recovery actually sees.
  {
    const std::string wal_path = ScratchPath("wal");
    persist::FileSystem* fs = persist::FileSystem::Posix();
    auto file_result = fs->NewWritableFile(wal_path);
    MBI_CHECK_OK(file_result.status());
    persist::LogWriter writer(std::move(file_result).value());
    MBI_CHECK_OK(writer.AddRecord("alpha", 5));
    std::vector<uint8_t> big(1024, 0xAB);
    MBI_CHECK_OK(writer.AddRecord(big.data(), big.size()));
    MBI_CHECK_OK(writer.AddRecord("", 0));
    MBI_CHECK_OK(writer.Close());
    std::vector<uint8_t> wal = ReadAll(wal_path);
    std::filesystem::remove(wal_path);
    std::vector<uint8_t> seed{0x01};
    seed.insert(seed.end(), wal.begin(), wal.end());
    seeds.push_back(seed);
    seed.resize(seed.size() - 7);  // tear the final record
    seeds.push_back(std::move(seed));
  }

  // Seeds 6/7: near-empty inputs for both modes.
  seeds.push_back({0x00});
  seeds.push_back({0x01, 0xFF, 0xFF});
  return seeds;
}

int MakeCorpus(const std::string& dir) {
  const std::vector<std::vector<uint8_t>> seeds = MakeSeeds();
  for (size_t i = 0; i < seeds.size(); ++i) {
    WriteAll(dir + "/seed_" + std::to_string(i), seeds[i].data(),
             seeds[i].size());
  }
  std::printf("fuzz_snapshot_load: wrote %zu seeds to %s\n", seeds.size(),
              dir.c_str());
  return 0;
}

// Deterministic no-fuzzer smoke: every seed as-is, then `rounds` mutants
// per seed (single byte flip or truncation) from a fixed Rng stream. Under
// MBI_SANITIZE this shakes out the same class of bug a short libFuzzer run
// would, without requiring a libFuzzer-capable toolchain.
int Smoke(size_t rounds) {
  const std::vector<std::vector<uint8_t>> seeds = MakeSeeds();
  Rng rng(0xF0CC5EED);
  size_t executed = 0;
  for (const std::vector<uint8_t>& seed : seeds) {
    RunOne(seed.data(), seed.size());
    ++executed;
    for (size_t round = 0; round < rounds; ++round) {
      std::vector<uint8_t> mutant = seed;
      if (mutant.size() > 1 && rng.NextBounded(4) == 0) {
        mutant.resize(1 + rng.NextBounded(mutant.size() - 1));
      }
      if (!mutant.empty()) {
        const size_t pos = rng.NextBounded(mutant.size());
        mutant[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      RunOne(mutant.data(), mutant.size());
      ++executed;
    }
  }
  std::filesystem::remove_all(CheckpointDir());
  std::printf("fuzz_snapshot_load: smoke OK (%zu inputs)\n", executed);
  return 0;
}

}  // namespace
}  // namespace mbi

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--make-corpus") == 0) {
    return mbi::MakeCorpus(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--smoke") == 0) {
    const size_t rounds =
        argc >= 3 ? static_cast<size_t>(std::atoi(argv[2])) : 200;
    return mbi::Smoke(rounds);
  }
  if (argc >= 2) {
    // Replay explicit input files (crash reproduction outside libFuzzer).
    for (int i = 1; i < argc; ++i) {
      std::vector<uint8_t> bytes = mbi::ReadAll(argv[i]);
      mbi::RunOne(bytes.data(), bytes.size());
      std::printf("fuzz_snapshot_load: %s OK\n", argv[i]);
    }
    return 0;
  }
  return mbi::Smoke(200);
}

#endif  // MBI_FUZZER_DRIVER
