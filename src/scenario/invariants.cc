#include "scenario/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/topk.h"
#include "obs/metrics.h"
#include "persist/crc32c.h"

namespace mbi::scenario {

const char* InvariantName(InvariantId id) {
  switch (id) {
    case InvariantId::kNoLostAckedWrites: return "no-lost-acked-writes";
    case InvariantId::kRecallFloor: return "recall-floor";
    case InvariantId::kDeadlineOvershoot: return "p99-overshoot";
    case InvariantId::kResultValidity: return "degraded-never-invalid";
    case InvariantId::kMetricsConsistency: return "metrics-consistency";
    case InvariantId::kAdmissionBound: return "admission-bound";
    case InvariantId::kShardOracleMatch: return "shard-oracle-match";
    case InvariantId::kShardRetryBudget: return "shard-retry-budget";
  }
  return "unknown";
}

SearchResult ExactOracleTopK(const VectorStore& store, size_t view_size,
                             const float* query, size_t k,
                             const TimeWindow& window) {
  SearchResult out;
  if (k == 0 || view_size == 0) return out;
  const IdRange range =
      store.FindRangeInPrefix(window, std::min(view_size, store.size()));
  if (range.size() <= 0) return out;
  const DistanceFunction& dist = store.distance();
  TopKHeap heap(k);
  VectorId id = range.begin;
  while (id < range.end) {
    const VectorStore::ContiguousRun run = store.Run(id, range.end);
    // mbi-lint: allow(budget-charge) — exact oracle, deliberately unbudgeted
    for (size_t i = 0; i < run.count; ++i) {
      heap.Push(dist(query, run.data + i * store.dim()),
                id + static_cast<VectorId>(i));
    }
    id += static_cast<VectorId>(run.count);
  }
  return heap.ExtractSorted();
}

std::string CheckResultValidity(const VectorStore& store, size_t view_size,
                                const TimeWindow& window,
                                const float* query, size_t k,
                                const SearchResult& result) {
  char buf[192];
  if (result.size() > k) {
    std::snprintf(buf, sizeof(buf), "result holds %zu > k=%zu neighbors",
                  result.size(), k);
    return buf;
  }
  const DistanceFunction& dist = store.distance();
  float prev = -std::numeric_limits<float>::infinity();
  // mbi-lint: allow(budget-charge) — invariant recompute, not a query path
  for (size_t i = 0; i < result.size(); ++i) {
    const Neighbor& nb = result[i];
    if (nb.id < 0 || static_cast<size_t>(nb.id) >= view_size) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: id %lld outside pinned view of %zu", i,
                    static_cast<long long>(nb.id), view_size);
      return buf;
    }
    const Timestamp ts = store.GetTimestamp(nb.id);
    if (!window.Contains(ts)) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: id %lld timestamp %lld outside window "
                    "[%lld, %lld)",
                    i, static_cast<long long>(nb.id),
                    static_cast<long long>(ts),
                    static_cast<long long>(window.start),
                    static_cast<long long>(window.end));
      return buf;
    }
    const float recomputed = dist(query, store.GetVector(nb.id));
    if (recomputed != nb.distance) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: reported distance %g != recomputed %g", i,
                    nb.distance, recomputed);
      return buf;
    }
    if (nb.distance < prev) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: distances not sorted (%g after %g)", i,
                    nb.distance, prev);
      return buf;
    }
    prev = nb.distance;
  }
  std::vector<VectorId> ids;
  ids.reserve(result.size());
  for (const Neighbor& nb : result) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    std::snprintf(buf, sizeof(buf), "id %lld appears more than once",
                  static_cast<long long>(*dup));
    return buf;
  }
  return "";
}

uint64_t HashResult(const SearchResult& result) {
  uint32_t crc = 0;
  for (const Neighbor& nb : result) {
    unsigned char buf[12];
    std::memcpy(buf, &nb.id, 8);
    std::memcpy(buf + 8, &nb.distance, 4);
    crc = persist::Crc32cExtend(crc, buf, sizeof(buf));
  }
  return (static_cast<uint64_t>(result.size()) << 32) | crc;
}

size_t FirstDifferingRow(const VectorStore& store, size_t rows,
                         const SyntheticData& data, size_t base) {
  for (size_t i = 0; i < rows; ++i) {
    const VectorId id = static_cast<VectorId>(i);
    if (store.GetTimestamp(id) != data.timestamps[base + i] ||
        std::memcmp(store.GetVector(id), data.vector(base + i),
                    data.dim * sizeof(float)) != 0) {
      return i;
    }
  }
  return rows;
}

CounterDeltas::CounterDeltas(std::vector<std::string> names)
    : names_(std::move(names)) {
  for (const std::string& name : names_) {
    base_.push_back(
        obs::MetricRegistry::Default().GetCounter(name)->Value());
  }
}

std::vector<std::string> CounterDeltas::Mismatches(
    const std::vector<uint64_t>& observed) const {
  std::vector<std::string> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    const uint64_t moved =
        obs::MetricRegistry::Default().GetCounter(names_[i])->Value() -
        base_[i];
    if (moved != observed[i]) {
      out.push_back(names_[i] + " moved " + std::to_string(moved) +
                    ", driver observed " + std::to_string(observed[i]));
    }
  }
  return out;
}

std::optional<std::string> CheckOvershoot(const PercentileSink& overshoot,
                                          int64_t injected_delay_nanos,
                                          double bound) {
  constexpr size_t kMinOvershootSamples = 20;
  if (injected_delay_nanos <= 0 || overshoot.count() < kMinOvershootSamples) {
    return std::nullopt;
  }
  const double p99 = overshoot.Quantile(0.99);
  if (p99 <= bound) return "";
  return "p99 overshoot " + std::to_string(p99) + " > " +
         std::to_string(bound) + " over " + std::to_string(overshoot.count()) +
         " samples";
}

double PercentileSink::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t idx = static_cast<size_t>(std::ceil(rank));
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace mbi::scenario
