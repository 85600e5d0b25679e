// The scenario invariant catalog.
//
// Invariants come in two flavors. *Continuous* checks run on every query
// result as it is produced (validity: in-window, in-view, correctly sorted,
// distances honest) — in concurrent mode every reader thread runs them
// inline, so a violation pinpoints the racing operation. *End-of-run*
// checks aggregate over the whole scenario (recall floor vs the exact
// oracle, p99 deadline overshoot, no-lost-acknowledged-writes after
// recovery, metrics-counter consistency) and are reported as a violation
// list in the ScenarioOutcome.
//
// The catalog (documented in DESIGN.md §12):
//   I1 no-lost-acked-writes  after crash+Recover the index holds every
//                            vector a committed checkpoint acknowledged,
//                            bit-identical to what was ingested
//   I2 recall-floor          mean recall of sampled unbounded queries vs
//                            the exact oracle on the same pinned view
//                            >= bounds.recall_floor
//   I3 p99-overshoot         p99(observed elapsed / deadline) over
//                            deadline-bounded queries <= bound
//   I4 degraded-never-invalid every result — complete, degraded or mid-
//                            crash — contains only in-window, in-view
//                            vectors with honest distances, sorted
//   I5 metrics-consistency   obs counters moved exactly as many times as
//                            the driver observed the corresponding outcome
//   I6 admission-bound       inflight high-water <= max_inflight_queries

#ifndef MBI_SCENARIO_INVARIANTS_H_
#define MBI_SCENARIO_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_window.h"
#include "core/types.h"
#include "core/vector_store.h"
#include "data/synthetic.h"
#include "scenario/scenario.h"

namespace mbi::scenario {

/// Stable ids for the invariant catalog (event-log payloads, JSON output).
enum class InvariantId : uint64_t {
  kNoLostAckedWrites = 1,
  kRecallFloor = 2,
  kDeadlineOvershoot = 3,
  kResultValidity = 4,
  kMetricsConsistency = 5,
  kAdmissionBound = 6,
  // Sharded scatter-gather (src/shard, checked by shard scenarios):
  kShardOracleMatch = 7,   ///< all-healthy merges bit-match a single-index
                           ///< oracle over the same rows
  kShardRetryBudget = 8,   ///< retries consumed <= probed shards *
                           ///< backoff.max_retries, per query
};

const char* InvariantName(InvariantId id);

/// One broken invariant: which one, and a human-readable account.
struct Violation {
  InvariantId id;
  std::string detail;
};

/// Exact TkNN over the pinned prefix [0, view_size) of `store` — the
/// oracle recall and validity checks compare against. Unlike
/// BsbfIndex::Query this clamps to a reader's pinned view, so it agrees
/// with what a concurrent query was allowed to see.
SearchResult ExactOracleTopK(const VectorStore& store, size_t view_size,
                             const float* query, size_t k,
                             const TimeWindow& window);

/// I4 for one result: every neighbor in-window and inside the pinned view,
/// distance equal to the recomputed distance, list sorted, no id twice,
/// size <= k. Returns an empty string when valid, else the first problem
/// found.
std::string CheckResultValidity(const VectorStore& store, size_t view_size,
                                const TimeWindow& window,
                                const float* query, size_t k,
                                const SearchResult& result);

/// Content hash of a result list: neighbor ids and the raw bit patterns of
/// their distances. Two results hash equal iff they are bit-identical.
uint64_t HashResult(const SearchResult& result);

/// I1's bit check after a recovery: the first row i < rows whose timestamp
/// or vector bits in `store` differ from row base + i of `data` (what was
/// ingested); `rows` when every row matches.
size_t FirstDifferingRow(const VectorStore& store, size_t rows,
                         const SyntheticData& data, size_t base = 0);

/// I5: how far named process-wide obs counters moved since construction,
/// to reconcile against how often a driver observed each outcome.
class CounterDeltas {
 public:
  explicit CounterDeltas(std::vector<std::string> names);

  /// One "<name> moved X, driver observed Y" account per counter whose
  /// movement differs from observed[i] (same order as the names).
  std::vector<std::string> Mismatches(
      const std::vector<uint64_t>& observed) const;

 private:
  std::vector<std::string> names_;
  std::vector<uint64_t> base_;
};

/// Streaming percentile sink for overshoot ratios and similar small-count
/// distributions (exact: keeps the samples).
class PercentileSink {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  /// Exact q-quantile by nearest-rank; 0 when empty.
  double Quantile(double q) const;

  /// Folds another sink's samples in (per-thread sinks merged after join).
  void MergeFrom(const PercentileSink& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

 private:
  std::vector<double> values_;
};

/// Streaming mean for recall samples.
class MeanSink {
 public:
  void Add(double v) {
    sum_ += v;
    ++count_;
  }
  size_t count() const { return count_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  void MergeFrom(const MeanSink& other) {
    sum_ += other.sum_;
    count_ += other.count_;
  }

 private:
  double sum_ = 0.0;
  size_t count_ = 0;
};

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_INVARIANTS_H_
