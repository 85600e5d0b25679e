#include "index/flat_block_index.h"

#include <algorithm>

#include "util/io.h"

namespace mbi {

void ExactScan(const VectorStore& store, const IdRange& range,
               const float* query, const IdRange* id_filter, TopKHeap* results,
               SearchStats* stats, BudgetTracker* budget) {
  // Narrow to the in-window sub-slice (Algorithm 1 restricted to this
  // block's slice; the filter is already an id range).
  IdRange scan = range;
  if (id_filter != nullptr) {
    scan.begin = std::max(scan.begin, id_filter->begin);
    scan.end = std::min(scan.end, id_filter->end);
  }
  if (scan.Empty()) return;

  const bool budgeted = budget != nullptr && budget->active();
  const DistanceFunction& dist = store.distance();
  const size_t dim = store.dim();
  size_t m = 0;  // rows actually scanned (== scan.size() when unbudgeted)
  // Walk chunk-contiguous runs so the inner loop keeps its linear access
  // pattern despite the chunked store. Under a budget the run is split into
  // small sub-batches: the whole sub-batch is charged up front (one branch
  // per kSubBatch rows instead of one per row), then scanned, so the hot
  // loop stays tight and overshoot is bounded by kSubBatch rows.
  constexpr size_t kSubBatch = 64;
  for (VectorId id = scan.begin; id < scan.end;) {
    const VectorStore::ContiguousRun run = store.Run(id, scan.end);
    size_t done = 0;
    while (done < run.count) {
      const size_t batch = std::min(kSubBatch, run.count - done);
      if (budgeted && !budget->ChargeDistance(batch)) break;
      for (size_t i = done; i < done + batch; ++i) {
        float d = dist(query, run.data + i * dim);
        results->Push(d, id + static_cast<VectorId>(i));
      }
      done += batch;
    }
    m += done;
    if (done < run.count) break;  // budget exhausted mid-run
    id += static_cast<VectorId>(run.count);
  }
  if (stats != nullptr) {
    stats->distance_evaluations += m;
    // Every scanned vector is in-filter by construction and offered to R.
    stats->filter_hits += m;
  }
}

void FlatBlockIndex::Search(const VectorStore& store, const float* query,
                            const SearchParams& /*params*/,
                            const IdRange* id_filter,
                            GraphSearcher* /*searcher*/, Rng* /*rng*/,
                            TopKHeap* results, SearchStats* stats,
                            BudgetTracker* budget) const {
  ExactScan(store, range_, query, id_filter, results, stats, budget);
}

Status FlatBlockIndex::Save(BinaryWriter* writer) const {
  MBI_RETURN_IF_ERROR(writer->Write<int64_t>(range_.begin));
  return writer->Write<int64_t>(range_.end);
}

Status FlatBlockIndex::Load(BinaryReader* reader) {
  MBI_RETURN_IF_ERROR(reader->Read<int64_t>(&range_.begin));
  MBI_RETURN_IF_ERROR(reader->Read<int64_t>(&range_.end));
  if (range_.begin < 0 || range_.end < range_.begin) {
    return Status::IoError("corrupt FlatBlockIndex: invalid id range");
  }
  return Status::Ok();
}

}  // namespace mbi
