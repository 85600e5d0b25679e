// MbiIndex persistence: sectioned checksummed single-file snapshots
// (Save/Load, format MBIX0002) and incremental
// crash-safe checkpoints (Checkpoint/Recover).
//
// Single file (MBIX0002):
//
//   [8B magic][u32 num_sections = 3][table: 3 x {u64 len, u32 crc32c}]
//   [params section][store section][blocks section]
//
// The table is patched in place once the sections are streamed out; the file
// is published with tmp + fsync + rename. Readers validate every section
// length against the bytes actually on disk before any allocation and verify
// each section's CRC, so corruption surfaces as Status::DataLoss/IoError —
// never a crash, an OOM or a silently wrong index.
//
// Checkpoint directory:
//
//   <dir>/segments/vec-<i>.seg   framed, one per full leaf, immutable
//   <dir>/segments/blk-<j>.seg   framed, one per built block, immutable
//   <dir>/wal-<covered>.log      CRC-framed records for the committed tail
//   <dir>/MANIFEST               framed; atomic rename commits everything
//
// Segments are written once and reused by later checkpoints (leaf data and
// blocks are immutable); only the tail log and the manifest change. Recover
// loads the manifest's segments, then re-runs the merge cascade over the
// tail records — deterministic seeded builds reproduce the pre-crash index.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mbi/mbi_index.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/log.h"
#include "util/io.h"
#include "util/timer.h"

namespace mbi {

namespace {

constexpr char kMagicV2[] = "MBIX0002";
constexpr char kManifestMagic[] = "MBIMAN01";
constexpr char kVecSegMagic[] = "MBISEG01";
constexpr char kBlkSegMagic[] = "MBIBLK01";
constexpr uint32_t kNumSections = 3;

// Upper bound on a plausible dimensionality; rejects corrupt headers whose
// dim field would make the store's first chunk allocation explode.
constexpr uint64_t kMaxDim = 1u << 24;

struct PersistMetrics {
  obs::Counter* saves;
  obs::Counter* loads;
  obs::Counter* checkpoints;
  obs::Counter* checkpoint_bytes;
  obs::Counter* segments_written;
  obs::Counter* segments_reused;
  obs::Counter* wal_records;
  obs::Counter* recovers;
  obs::Counter* corruption_errors;
  obs::Histogram* checkpoint_seconds;
  obs::Histogram* recover_seconds;

  static const PersistMetrics& Get() {
    static const PersistMetrics m = [] {
      auto& reg = obs::MetricRegistry::Default();
      return PersistMetrics{
          reg.GetCounter("mbi_persist_saves_total",
                         "single-file index snapshots written"),
          reg.GetCounter("mbi_persist_loads_total",
                         "single-file index snapshots loaded"),
          reg.GetCounter("mbi_persist_checkpoints_total",
                         "incremental checkpoints committed"),
          reg.GetCounter("mbi_persist_checkpoint_bytes_total",
                         "bytes written by checkpoints (segments + log + "
                         "manifest; reused segments cost zero)"),
          reg.GetCounter("mbi_persist_segments_written_total",
                         "checkpoint segment files written"),
          reg.GetCounter("mbi_persist_segments_reused_total",
                         "checkpoint segment files reused from a previous "
                         "checkpoint"),
          reg.GetCounter("mbi_persist_wal_records_total",
                         "tail-log records appended by checkpoints"),
          reg.GetCounter("mbi_persist_recovers_total",
                         "successful checkpoint recoveries"),
          reg.GetCounter("mbi_persist_corruption_errors_total",
                         "loads/recoveries rejected due to detected "
                         "corruption or IO failure"),
          reg.GetHistogram("mbi_persist_checkpoint_seconds",
                           obs::Histogram::ExponentialBounds(1e-4, 4.0, 14),
                           "wall seconds per checkpoint"),
          reg.GetHistogram("mbi_persist_recover_seconds",
                           obs::Histogram::ExponentialBounds(1e-4, 4.0, 14),
                           "wall seconds per recovery"),
      };
    }();
    return m;
  }
};

// Dim/metric/params header shared by the v2 params section and the
// checkpoint manifest.
struct IndexHeader {
  uint64_t dim = 0;
  uint32_t metric_raw = 0;
  MbiParams params;
};

Status WriteHeaderTo(BinaryWriter* w, uint64_t dim, Metric metric,
                     const MbiParams& p) {
  MBI_RETURN_IF_ERROR(w->Write<uint64_t>(dim));
  MBI_RETURN_IF_ERROR(w->Write<uint32_t>(static_cast<uint32_t>(metric)));
  MBI_RETURN_IF_ERROR(w->Write<int64_t>(p.leaf_size));
  MBI_RETURN_IF_ERROR(w->Write<double>(p.tau));
  MBI_RETURN_IF_ERROR(w->Write<uint32_t>(static_cast<uint32_t>(p.block_kind)));
  MBI_RETURN_IF_ERROR(w->Write<uint64_t>(p.build.degree));
  MBI_RETURN_IF_ERROR(w->Write<uint64_t>(p.build.exact_threshold));
  MBI_RETURN_IF_ERROR(w->Write<double>(p.build.rho));
  MBI_RETURN_IF_ERROR(w->Write<double>(p.build.delta));
  MBI_RETURN_IF_ERROR(w->Write<uint64_t>(p.build.max_iterations));
  return w->Write<uint64_t>(p.build.seed);
}

// Fully validates before returning OK: the MbiIndex constructor aborts on
// invalid params (programmer error), so corrupt files must be rejected here.
Status ReadHeaderFrom(BinaryReader* r, IndexHeader* h) {
  uint32_t kind_raw = 0;
  MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&h->dim));
  MBI_RETURN_IF_ERROR(r->Read<uint32_t>(&h->metric_raw));
  MBI_RETURN_IF_ERROR(r->Read<int64_t>(&h->params.leaf_size));
  MBI_RETURN_IF_ERROR(r->Read<double>(&h->params.tau));
  MBI_RETURN_IF_ERROR(r->Read<uint32_t>(&kind_raw));
  MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&h->params.build.degree));
  MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&h->params.build.exact_threshold));
  MBI_RETURN_IF_ERROR(r->Read<double>(&h->params.build.rho));
  MBI_RETURN_IF_ERROR(r->Read<double>(&h->params.build.delta));
  MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&h->params.build.max_iterations));
  MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&h->params.build.seed));
  if (h->dim == 0 || h->dim > kMaxDim || h->metric_raw > 2 || kind_raw > 2) {
    return Status::IoError("corrupt MBI index header");
  }
  h->params.block_kind = static_cast<BlockIndexKind>(kind_raw);
  return h->params.Validate();
}

// Streams vectors then timestamps of ids [begin, end), run by run.
Status WriteStoreRange(BinaryWriter* w, const VectorStore& store,
                       int64_t begin, int64_t end) {
  const size_t dim = store.dim();
  for (VectorId id = begin; id < end;) {
    const VectorStore::ContiguousRun run = store.Run(id, end);
    MBI_RETURN_IF_ERROR(
        w->WriteBytes(run.data, run.count * dim * sizeof(float)));
    id += static_cast<VectorId>(run.count);
  }
  for (VectorId id = begin; id < end;) {
    const VectorStore::ContiguousRun run = store.Run(id, end);
    MBI_RETURN_IF_ERROR(
        w->WriteBytes(run.timestamps, run.count * sizeof(Timestamp)));
    id += static_cast<VectorId>(run.count);
  }
  return Status::Ok();
}

// Reads n vectors + timestamps, bounds-checking the untrusted count against
// the remaining file size (and uint64 overflow) before any allocation.
Status ReadVectorsInto(BinaryReader* r, uint64_t n, uint64_t dim,
                       VectorStore* store) {
  uint64_t elems = 0, vec_bytes = 0, ts_bytes = 0;
  if (!CheckedMul(n, dim, &elems) ||
      !CheckedMul(elems, sizeof(float), &vec_bytes) ||
      !CheckedMul(n, sizeof(Timestamp), &ts_bytes) ||
      vec_bytes > r->Remaining() ||
      ts_bytes > r->Remaining() - vec_bytes) {
    return Status::IoError("corrupt MBI index: vector count " +
                           std::to_string(n) + " exceeds file size");
  }
  std::vector<float> data(static_cast<size_t>(elems));
  std::vector<Timestamp> timestamps(static_cast<size_t>(n));
  if (n > 0) {
    MBI_RETURN_IF_ERROR(
        r->ReadBytes(data.data(), static_cast<size_t>(vec_bytes)));
    MBI_RETURN_IF_ERROR(
        r->ReadBytes(timestamps.data(), static_cast<size_t>(ts_bytes)));
  }
  return store->AppendBatch(data.data(), timestamps.data(), n);
}

// Writes the block list of a snapshot: count, then {kind, payload} each.
Status WriteBlockList(
    BinaryWriter* w,
    const std::vector<std::shared_ptr<const BlockKnnIndex>>& blocks) {
  MBI_RETURN_IF_ERROR(w->Write<uint64_t>(blocks.size()));
  for (const auto& block : blocks) {
    MBI_RETURN_IF_ERROR(
        w->Write<uint32_t>(static_cast<uint32_t>(block->kind())));
    MBI_RETURN_IF_ERROR(block->Save(w));
  }
  return Status::Ok();
}

// Reads a block list that must cover [0, covered_end) exactly: the count
// must equal the tree arithmetic's block count and every block's id range
// must match its postorder node — a block over the wrong slice could
// silently return wrong neighbors.
Status ReadBlockList(
    BinaryReader* r, int64_t covered_end, int64_t leaf_size,
    std::vector<std::shared_ptr<const BlockKnnIndex>>* blocks) {
  uint64_t num_blocks = 0;
  MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&num_blocks));
  const BlockTreeShape shape(covered_end, leaf_size);
  if (static_cast<int64_t>(num_blocks) != shape.NumFullBlocks()) {
    return Status::IoError("corrupt MBI index: block count mismatch");
  }
  const std::vector<TreeNode> nodes = shape.AllFullNodes();
  blocks->clear();
  blocks->reserve(nodes.size());
  for (size_t j = 0; j < nodes.size(); ++j) {
    uint32_t kind = 0;
    MBI_RETURN_IF_ERROR(r->Read<uint32_t>(&kind));
    if (kind > 2) return Status::IoError("corrupt block kind");
    auto block = MakeEmptyBlockIndex(static_cast<BlockIndexKind>(kind));
    MBI_RETURN_IF_ERROR(block->Load(r));
    if (!(block->range() == shape.NodeRange(nodes[j]))) {
      return Status::IoError("corrupt MBI index: block covers wrong range");
    }
    blocks->push_back(std::move(block));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Checkpoint manifest + tail-log records.

struct ManifestData {
  IndexHeader header;
  int64_t covered_end = 0;
  uint64_t num_vectors = 0;
  uint64_t num_blocks = 0;
  uint64_t wal_bytes = 0;
};

Status ReadManifest(persist::FileSystem* fs, const std::string& path,
                    ManifestData* out) {
  return persist::ReadFramedFile(fs, path, kManifestMagic,
                                 [out, &path](BinaryReader* r) -> Status {
    MBI_RETURN_IF_ERROR(ReadHeaderFrom(r, &out->header));
    MBI_RETURN_IF_ERROR(r->Read<int64_t>(&out->covered_end));
    MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&out->num_vectors));
    MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&out->num_blocks));
    MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&out->wal_bytes));
    const int64_t L = out->header.params.leaf_size;
    if (out->covered_end < 0 || out->covered_end % L != 0 ||
        out->num_vectors < static_cast<uint64_t>(out->covered_end) ||
        static_cast<int64_t>(out->num_blocks) !=
            BlockTreeShape::BlocksForLeaves(out->covered_end / L)) {
      return Status::DataLoss("corrupt checkpoint manifest: inconsistent "
                              "coverage in " + path);
    }
    return Status::Ok();
  });
}

// Tail-log record payload: [u64 first_id][u64 count][floats][timestamps].
struct WalRecord {
  int64_t first_id = 0;
  uint64_t count = 0;
  std::vector<float> vectors;
  std::vector<Timestamp> timestamps;
};

void BuildWalRecord(const VectorStore& store, int64_t begin, int64_t end,
                    std::string* out) {
  const size_t dim = store.dim();
  const uint64_t first_id = static_cast<uint64_t>(begin);
  const uint64_t count = static_cast<uint64_t>(end - begin);
  out->clear();
  out->reserve(16 + count * (dim * sizeof(float) + sizeof(Timestamp)));
  out->append(reinterpret_cast<const char*>(&first_id), 8);
  out->append(reinterpret_cast<const char*>(&count), 8);
  for (VectorId id = begin; id < end;) {
    const VectorStore::ContiguousRun run = store.Run(id, end);
    out->append(reinterpret_cast<const char*>(run.data),
                run.count * dim * sizeof(float));
    id += static_cast<VectorId>(run.count);
  }
  for (VectorId id = begin; id < end;) {
    const VectorStore::ContiguousRun run = store.Run(id, end);
    out->append(reinterpret_cast<const char*>(run.timestamps),
                run.count * sizeof(Timestamp));
    id += static_cast<VectorId>(run.count);
  }
}

// Copies (never aliases: the payload may be unaligned) a record out of its
// framed buffer. Returns false on any structural mismatch.
bool ParseWalRecord(const std::string& rec, uint64_t dim, WalRecord* out) {
  if (rec.size() < 16) return false;
  uint64_t first_id = 0;
  std::memcpy(&first_id, rec.data(), 8);
  std::memcpy(&out->count, rec.data() + 8, 8);
  if (first_id > static_cast<uint64_t>(INT64_MAX)) return false;
  out->first_id = static_cast<int64_t>(first_id);
  uint64_t row_bytes = 0;
  if (!CheckedMul(out->count, dim * sizeof(float) + sizeof(Timestamp),
                  &row_bytes) ||
      rec.size() - 16 != row_bytes) {
    return false;
  }
  const size_t n = static_cast<size_t>(out->count);
  out->vectors.resize(n * static_cast<size_t>(dim));
  out->timestamps.resize(n);
  if (n > 0) {
    std::memcpy(out->vectors.data(), rec.data() + 16,
                out->vectors.size() * sizeof(float));
    std::memcpy(out->timestamps.data(),
                rec.data() + 16 + out->vectors.size() * sizeof(float),
                n * sizeof(Timestamp));
  }
  return true;
}

std::string VecSegPath(const std::string& dir, int64_t leaf) {
  return dir + "/segments/vec-" + std::to_string(leaf) + ".seg";
}
std::string BlkSegPath(const std::string& dir, size_t block) {
  return dir + "/segments/blk-" + std::to_string(block) + ".seg";
}
std::string WalPath(const std::string& dir, int64_t covered_end) {
  return dir + "/wal-" + std::to_string(covered_end) + ".log";
}

bool IsCorruptionCode(const Status& s) {
  return s.code() == StatusCode::kIoError || s.code() == StatusCode::kDataLoss;
}

}  // namespace

// Friend of MbiIndex: the load/recover paths that populate private state.
class MbiIo {
 public:
  static Result<std::unique_ptr<MbiIndex>> Load(const std::string& path,
                                                persist::FileSystem* fs);
  static Status Checkpoint(const MbiIndex& index, const std::string& dir,
                           persist::FileSystem* fs);
  static Result<std::unique_ptr<MbiIndex>> Recover(const std::string& dir,
                                                   persist::FileSystem* fs);

 private:
  static Result<std::unique_ptr<MbiIndex>> LoadV2(BinaryReader* r,
                                                  const std::string& path);
};

// ---------------------------------------------------------------------------
// Save (MBIX0002)

Status MbiIndex::Save(const std::string& path,
                      persist::FileSystem* fs) const {
  if (fs == nullptr) fs = persist::FileSystem::Posix();
  // A pinned view makes Save safe during live ingest: it serializes the
  // committed prefix plus the published blocks that cover part of it.
  const ReadView view = AcquireReadView();
  const MbiSnapshot& snap = *view.snapshot;
  const uint64_t n = view.num_vectors;

  const Status s = persist::AtomicallyWriteFile(
      fs, path, [&](BinaryWriter* w) -> Status {
        MBI_RETURN_IF_ERROR(w->WriteBytes(kMagicV2, 8));
        MBI_RETURN_IF_ERROR(w->Write<uint32_t>(kNumSections));
        const uint64_t table_offset = w->offset();
        const char placeholder[12] = {0};
        for (uint32_t i = 0; i < kNumSections; ++i) {
          MBI_RETURN_IF_ERROR(
              w->WriteBytes(placeholder, sizeof(placeholder)));
        }

        uint64_t lens[kNumSections];
        uint32_t crcs[kNumSections];
        uint64_t start = 0;

        // Section 0: params.
        start = w->offset();
        w->CrcReset();
        MBI_RETURN_IF_ERROR(
            WriteHeaderTo(w, store_.dim(), store_.metric(), params_));
        lens[0] = w->offset() - start;
        crcs[0] = w->crc();

        // Section 1: store (committed prefix of the pinned view).
        start = w->offset();
        w->CrcReset();
        MBI_RETURN_IF_ERROR(w->Write<uint64_t>(n));
        MBI_RETURN_IF_ERROR(
            WriteStoreRange(w, store_, 0, static_cast<int64_t>(n)));
        lens[1] = w->offset() - start;
        crcs[1] = w->crc();

        // Section 2: the snapshot's covered bound and its blocks. Load
        // rebuilds any blocks past covered_end deterministically.
        start = w->offset();
        w->CrcReset();
        MBI_RETURN_IF_ERROR(w->Write<int64_t>(snap.covered_end));
        MBI_RETURN_IF_ERROR(WriteBlockList(w, snap.blocks));
        lens[2] = w->offset() - start;
        crcs[2] = w->crc();

        char table[kNumSections * 12];
        for (uint32_t i = 0; i < kNumSections; ++i) {
          std::memcpy(table + i * 12, &lens[i], 8);
          std::memcpy(table + i * 12 + 8, &crcs[i], 4);
        }
        return w->PatchAt(table_offset, table, sizeof(table));
      });
  if (s.ok()) PersistMetrics::Get().saves->Increment();
  return s;
}

// ---------------------------------------------------------------------------
// Load (MBIX0002)

Result<std::unique_ptr<MbiIndex>> MbiIo::LoadV2(BinaryReader* r,
                                                const std::string& path) {
  uint32_t num_sections = 0;
  MBI_RETURN_IF_ERROR(r->Read<uint32_t>(&num_sections));
  if (num_sections != kNumSections) {
    return Status::DataLoss("corrupt MBI index: bad section count in " +
                            path);
  }
  uint64_t lens[kNumSections];
  uint32_t crcs[kNumSections];
  for (uint32_t i = 0; i < kNumSections; ++i) {
    MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&lens[i]));
    MBI_RETURN_IF_ERROR(r->Read<uint32_t>(&crcs[i]));
  }
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumSections; ++i) {
    if (lens[i] > r->Remaining() - total) {
      return Status::DataLoss("corrupt MBI index: section " +
                              std::to_string(i) + " length exceeds file " +
                              path);
    }
    total += lens[i];
  }
  if (total != r->Remaining()) {
    return Status::DataLoss(
        "corrupt MBI index: section table does not match file size of " +
        path);
  }

  // Validates one section's byte span and checksum after parsing it.
  uint64_t section_start = 0;
  const auto begin_section = [&] {
    section_start = r->offset();
    r->CrcReset();
  };
  const auto end_section = [&](uint32_t i) -> Status {
    if (r->offset() - section_start != lens[i]) {
      return Status::DataLoss("corrupt MBI index: section " +
                              std::to_string(i) + " length mismatch in " +
                              path);
    }
    if (r->crc() != crcs[i]) {
      return Status::DataLoss("corrupt MBI index: section " +
                              std::to_string(i) + " checksum mismatch in " +
                              path);
    }
    return Status::Ok();
  };

  begin_section();
  IndexHeader h;
  MBI_RETURN_IF_ERROR(ReadHeaderFrom(r, &h));
  MBI_RETURN_IF_ERROR(end_section(0));
  auto index = std::make_unique<MbiIndex>(
      h.dim, static_cast<Metric>(h.metric_raw), h.params);

  begin_section();
  uint64_t n = 0;
  MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&n));
  MBI_RETURN_IF_ERROR(ReadVectorsInto(r, n, h.dim, &index->store_));
  MBI_RETURN_IF_ERROR(end_section(1));

  begin_section();
  int64_t covered_end = 0;
  MBI_RETURN_IF_ERROR(r->Read<int64_t>(&covered_end));
  if (covered_end < 0 || covered_end > static_cast<int64_t>(n) ||
      covered_end % h.params.leaf_size != 0) {
    return Status::DataLoss("corrupt MBI index: bad covered bound in " +
                            path);
  }
  std::vector<std::shared_ptr<const BlockKnnIndex>> blocks;
  MBI_RETURN_IF_ERROR(
      ReadBlockList(r, covered_end, h.params.leaf_size, &blocks));
  MBI_RETURN_IF_ERROR(end_section(2));

  // The close status must be checked before publishing: a deferred read
  // error means the bytes parsed above cannot be trusted.
  MBI_RETURN_IF_ERROR(r->Close());
  index->InstallBlocks(std::move(blocks), /*build_pending=*/true);
  return Result<std::unique_ptr<MbiIndex>>(std::move(index));
}

Result<std::unique_ptr<MbiIndex>> MbiIo::Load(const std::string& path,
                                              persist::FileSystem* fs) {
  BinaryReader r;
  MBI_RETURN_IF_ERROR(r.Open(path, fs));
  char magic[8];
  MBI_RETURN_IF_ERROR(r.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagicV2, 8) == 0) return LoadV2(&r, path);
  return Status::DataLoss("not an MBI index file: " + path);
}

Result<std::unique_ptr<MbiIndex>> MbiIndex::Load(const std::string& path,
                                                 persist::FileSystem* fs) {
  if (fs == nullptr) fs = persist::FileSystem::Posix();
  auto result = MbiIo::Load(path, fs);
  const PersistMetrics& m = PersistMetrics::Get();
  if (result.ok()) {
    m.loads->Increment();
  } else if (IsCorruptionCode(result.status())) {
    m.corruption_errors->Increment();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint

Status MbiIo::Checkpoint(const MbiIndex& index, const std::string& dir,
                         persist::FileSystem* fs) {
  const PersistMetrics& m = PersistMetrics::Get();
  const ReadView view = index.AcquireReadView();
  const MbiSnapshot& snap = *view.snapshot;
  const int64_t covered = snap.covered_end;
  const int64_t n = static_cast<int64_t>(view.num_vectors);
  const int64_t L = index.params_.leaf_size;
  const uint64_t dim = index.store_.dim();

  MBI_RETURN_IF_ERROR(fs->CreateDir(dir));
  MBI_RETURN_IF_ERROR(fs->CreateDir(dir + "/segments"));

  // Remember the previous checkpoint's covered bound so its (now stale)
  // tail log can be garbage-collected once the new manifest is committed.
  // A missing or unreadable previous manifest just skips the GC.
  const std::string manifest_path = dir + "/MANIFEST";
  int64_t prev_covered = -1;
  if (fs->FileExists(manifest_path)) {
    ManifestData prev;
    if (ReadManifest(fs, manifest_path, &prev).ok()) {
      prev_covered = prev.covered_end;
    }
  }

  uint64_t bytes_total = 0;
  uint64_t file_bytes = 0;

  // Immutable per-leaf vector segments: written once, reused forever. Each
  // segment is published atomically, so an existing file is always complete.
  for (int64_t leaf = 0; leaf < covered / L; ++leaf) {
    const std::string path = VecSegPath(dir, leaf);
    if (fs->FileExists(path)) {
      m.segments_reused->Increment();
      continue;
    }
    MBI_RETURN_IF_ERROR(persist::WriteFramedFile(
        fs, path, kVecSegMagic,
        [&](BinaryWriter* w) -> Status {
          MBI_RETURN_IF_ERROR(
              w->Write<uint64_t>(static_cast<uint64_t>(leaf * L)));
          MBI_RETURN_IF_ERROR(w->Write<uint64_t>(static_cast<uint64_t>(L)));
          return WriteStoreRange(w, index.store_, leaf * L, (leaf + 1) * L);
        },
        &file_bytes));
    m.segments_written->Increment();
    bytes_total += file_bytes;
  }

  // Immutable per-block index segments.
  for (size_t j = 0; j < snap.blocks.size(); ++j) {
    const std::string path = BlkSegPath(dir, j);
    if (fs->FileExists(path)) {
      m.segments_reused->Increment();
      continue;
    }
    const BlockKnnIndex& block = *snap.blocks[j];
    MBI_RETURN_IF_ERROR(persist::WriteFramedFile(
        fs, path, kBlkSegMagic,
        [&](BinaryWriter* w) -> Status {
          MBI_RETURN_IF_ERROR(
              w->Write<uint32_t>(static_cast<uint32_t>(block.kind())));
          return block.Save(w);
        },
        &file_bytes));
    m.segments_written->Increment();
    bytes_total += file_bytes;
  }

  // Tail log: replay what the wal already durably covers, drop any torn or
  // foreign tail, then append one record for the still-uncovered committed
  // suffix. The wal is keyed by covered_end, so a checkpoint that advanced
  // the covered bound starts a fresh log.
  const std::string wal_path = WalPath(dir, covered);
  int64_t wal_end = covered;
  uint64_t wal_valid_bytes = 0;
  if (fs->FileExists(wal_path)) {
    auto replay = persist::ReadLogRecords(fs, wal_path);
    MBI_RETURN_IF_ERROR(replay.status());
    for (const std::string& rec : replay.value().records) {
      WalRecord parsed;
      if (!ParseWalRecord(rec, dim, &parsed) || parsed.first_id != wal_end ||
          wal_end + static_cast<int64_t>(parsed.count) > n) {
        break;  // semantic mismatch: treat the rest as a torn tail
      }
      wal_end += static_cast<int64_t>(parsed.count);
      wal_valid_bytes += 8 + rec.size();
    }
    auto size = fs->GetFileSize(wal_path);
    MBI_RETURN_IF_ERROR(size.status());
    if (size.value() != wal_valid_bytes) {
      MBI_RETURN_IF_ERROR(fs->TruncateFile(wal_path, wal_valid_bytes));
    }
  }
  if (wal_end < n) {
    auto file = fs->NewAppendableFile(wal_path);
    MBI_RETURN_IF_ERROR(file.status());
    persist::LogWriter log(std::move(file).value());
    std::string record;
    BuildWalRecord(index.store_, wal_end, n, &record);
    Status s = log.AddRecord(record.data(), record.size());
    if (s.ok()) s = log.Sync();
    const Status close = log.Close();
    if (s.ok()) s = close;
    MBI_RETURN_IF_ERROR(s);
    wal_valid_bytes += log.bytes_appended();
    bytes_total += log.bytes_appended();
    m.wal_records->Increment();
  }

  // The manifest rename commits the checkpoint as a whole.
  MBI_RETURN_IF_ERROR(persist::WriteFramedFile(
      fs, manifest_path, kManifestMagic,
      [&](BinaryWriter* w) -> Status {
        MBI_RETURN_IF_ERROR(WriteHeaderTo(w, dim, index.store_.metric(),
                                          index.params_));
        MBI_RETURN_IF_ERROR(w->Write<int64_t>(covered));
        MBI_RETURN_IF_ERROR(w->Write<uint64_t>(static_cast<uint64_t>(n)));
        MBI_RETURN_IF_ERROR(w->Write<uint64_t>(snap.blocks.size()));
        return w->Write<uint64_t>(wal_valid_bytes);
      },
      &file_bytes));
  bytes_total += file_bytes;

  if (prev_covered >= 0 && prev_covered != covered) {
    (void)fs->DeleteFile(WalPath(dir, prev_covered));  // best-effort GC
  }
  m.checkpoints->Increment();
  m.checkpoint_bytes->Increment(bytes_total);
  return Status::Ok();
}

Status MbiIndex::Checkpoint(const std::string& dir,
                            persist::FileSystem* fs) const {
  if (fs == nullptr) fs = persist::FileSystem::Posix();
  WallTimer timer;
  const Status s = MbiIo::Checkpoint(*this, dir, fs);
  if (s.ok()) {
    PersistMetrics::Get().checkpoint_seconds->Observe(
        timer.ElapsedSeconds());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Recover

Result<std::unique_ptr<MbiIndex>> MbiIo::Recover(const std::string& dir,
                                                 persist::FileSystem* fs) {
  ManifestData manifest;
  MBI_RETURN_IF_ERROR(ReadManifest(fs, dir + "/MANIFEST", &manifest));
  const IndexHeader& h = manifest.header;
  const int64_t L = h.params.leaf_size;
  auto index = std::make_unique<MbiIndex>(
      h.dim, static_cast<Metric>(h.metric_raw), h.params);

  // Covered prefix: leaf vector segments in id order.
  for (int64_t leaf = 0; leaf < manifest.covered_end / L; ++leaf) {
    MBI_RETURN_IF_ERROR(persist::ReadFramedFile(
        fs, VecSegPath(dir, leaf), kVecSegMagic,
        [&](BinaryReader* r) -> Status {
          uint64_t first_id = 0, count = 0;
          MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&first_id));
          MBI_RETURN_IF_ERROR(r->Read<uint64_t>(&count));
          if (first_id != static_cast<uint64_t>(leaf * L) ||
              count != static_cast<uint64_t>(L)) {
            return Status::DataLoss("corrupt checkpoint: segment covers "
                                    "wrong ids");
          }
          return ReadVectorsInto(r, count, h.dim, &index->store_);
        }));
  }

  // Block index segments, validated against the tree arithmetic.
  const BlockTreeShape shape(manifest.covered_end, L);
  const std::vector<TreeNode> nodes = shape.AllFullNodes();
  std::vector<std::shared_ptr<const BlockKnnIndex>> blocks;
  blocks.reserve(nodes.size());
  for (size_t j = 0; j < nodes.size(); ++j) {
    MBI_RETURN_IF_ERROR(persist::ReadFramedFile(
        fs, BlkSegPath(dir, j), kBlkSegMagic,
        [&](BinaryReader* r) -> Status {
          uint32_t kind = 0;
          MBI_RETURN_IF_ERROR(r->Read<uint32_t>(&kind));
          if (kind > 2) return Status::DataLoss("corrupt block kind");
          auto block =
              MakeEmptyBlockIndex(static_cast<BlockIndexKind>(kind));
          MBI_RETURN_IF_ERROR(block->Load(r));
          if (!(block->range() == shape.NodeRange(nodes[j]))) {
            return Status::DataLoss("corrupt checkpoint: block covers "
                                    "wrong range");
          }
          blocks.push_back(std::move(block));
          return Status::Ok();
        }));
  }
  index->InstallBlocks(std::move(blocks), /*build_pending=*/false);

  // Tail log: replay the valid clean prefix through the normal insert path,
  // re-running the merge cascades. Seeded builds make the rebuilt blocks
  // identical to the ones the pre-crash index held in memory. Records past
  // the manifest's promise (a later checkpoint that crashed before its
  // manifest rename) are replayed too — they hold committed pre-crash data.
  const std::string wal_path = WalPath(dir, manifest.covered_end);
  if (fs->FileExists(wal_path)) {
    auto replay = persist::ReadLogRecords(fs, wal_path);
    MBI_RETURN_IF_ERROR(replay.status());
    for (const std::string& rec : replay.value().records) {
      WalRecord parsed;
      if (!ParseWalRecord(rec, h.dim, &parsed) ||
          parsed.first_id != static_cast<int64_t>(index->size())) {
        break;  // non-contiguous or malformed: durable prefix ends here
      }
      MBI_RETURN_IF_ERROR(index->AddBatch(parsed.vectors.data(),
                                          parsed.timestamps.data(),
                                          static_cast<size_t>(parsed.count),
                                          /*defer_builds=*/false));
    }
  }
  // The manifest promised num_vectors; recovering fewer means the tail log
  // lost committed records (e.g. truncated) — corruption, not a usable state.
  if (index->size() < manifest.num_vectors) {
    return Status::DataLoss(
        "checkpoint tail log lost committed records: recovered " +
        std::to_string(index->size()) + " of " +
        std::to_string(manifest.num_vectors) + " vectors");
  }
  return Result<std::unique_ptr<MbiIndex>>(std::move(index));
}

Result<std::unique_ptr<MbiIndex>> MbiIndex::Recover(const std::string& dir,
                                                    persist::FileSystem* fs) {
  if (fs == nullptr) fs = persist::FileSystem::Posix();
  WallTimer timer;
  auto result = MbiIo::Recover(dir, fs);
  const PersistMetrics& m = PersistMetrics::Get();
  if (result.ok()) {
    m.recovers->Increment();
    m.recover_seconds->Observe(timer.ElapsedSeconds());
  } else if (IsCorruptionCode(result.status())) {
    m.corruption_errors->Increment();
  }
  return result;
}

}  // namespace mbi
