// The scenario phase driver: replays a ScenarioSpec against a live MbiIndex.
//
// Two run modes share one spec:
//
//   kDeterministic — a single thread interleaves writes, queries,
//     checkpoints, fault injection and crash/recovery in a seed-derived
//     order under a VirtualClock, logging every event. A scenario run is a
//     pure function of (spec, seed): run it twice, the event logs'
//     fingerprints match bit for bit. Budget classes map to work caps (the
//     deterministic analog of deadlines); a seed-derived slice of budgeted
//     queries instead carries an already-expired virtual-clock deadline to
//     exercise the deadline path deterministically.
//
//   kConcurrent — a writer (the driver thread) races N reader threads
//     issuing admitted, deadline-bounded queries, a checkpointer thread
//     snapshotting mid-ingest, and optional overload bursts past the
//     admission limit; scripted crash points quiesce the threads, kill the
//     index, recover from the checkpoint directory and resume. Per-result
//     validity (I4) is checked inline on every reader; aggregate invariants
//     (recall floor, p99 overshoot, counter consistency, admission bound)
//     at end of run. This is the TSan soak target.
//
// Both modes enforce invariant I1 at every recovery: nothing a committed
// checkpoint acknowledged may be missing or differ bit-wise after Recover.

#ifndef MBI_SCENARIO_DRIVER_H_
#define MBI_SCENARIO_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_window.h"
#include "core/types.h"
#include "data/synthetic.h"
#include "scenario/event_log.h"
#include "scenario/invariants.h"
#include "scenario/scenario.h"
#include "util/rng.h"
#include "util/status.h"

namespace mbi::scenario {

enum class RunMode { kDeterministic, kConcurrent };

inline const char* RunModeName(RunMode m) {
  return m == RunMode::kDeterministic ? "deterministic" : "concurrent";
}

struct RunOptions {
  RunMode mode = RunMode::kDeterministic;

  /// Directory for checkpoint state. Empty = a unique directory under the
  /// system temp root, removed after the run.
  std::string work_dir;

  /// Concurrent mode: per-distance busy-wait (see budget_testing) making
  /// work expensive enough that deadline overshoot measures the library's
  /// polling granularity. Also gates the I3 check — without a delay the
  /// ratio mostly measures scheduler noise on loaded CI machines.
  int64_t injected_distance_delay_nanos = 0;
};

struct ScenarioStats {
  size_t add_ops = 0;         ///< Add calls acknowledged (incl. re-adds)
  size_t queries = 0;         ///< queries issued (incl. shed attempts)
  size_t complete = 0;
  size_t degraded = 0;
  size_t shed = 0;
  size_t checkpoints_committed = 0;
  size_t checkpoint_faults = 0;
  size_t crashes = 0;
  size_t recoveries = 0;
  size_t overload_bursts = 0;
  size_t final_size = 0;
  size_t final_blocks = 0;
  size_t inflight_high_water = 0;
  double recall_mean = 0.0;
  size_t recall_samples = 0;
  double p99_overshoot = 0.0;
  size_t overshoot_samples = 0;
  double wall_seconds = 0.0;  ///< physical, not logged (nondeterministic)

  // Sharded scatter-gather runs only (src/shard/shard_scenario.h):
  size_t hedges = 0;           ///< backup probes launched
  size_t shard_retries = 0;    ///< shed retries consumed across all probes
  size_t quarantines = 0;      ///< shards taken out of rotation
  size_t partial_results = 0;  ///< queries answered with < full shard coverage
};

struct ScenarioOutcome {
  std::string name;
  uint64_t seed = 0;
  RunMode mode = RunMode::kDeterministic;
  EventLog log;
  ScenarioStats stats;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string ViolationSummary() const;
};

/// Runs `spec` to completion. A non-OK status means the harness itself
/// could not run (bad spec, unusable work dir); invariant failures are
/// reported in the outcome's `violations`, not the status.
Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    const RunOptions& options);

// ---------------------------------------------------------------------------
// Harness parts shared by this driver and the shard driver
// (shard/shard_scenario.cc). Each driver keeps its own phase loop and its
// own RNG draw order, because their event order is what the fingerprints
// hash; everything else is built from these.

/// What a run owns besides its index: the checkpoint directory and the
/// seed-derived rows and query pool.
class RunFixture {
 public:
  RunFixture() = default;
  RunFixture(const RunFixture&) = delete;
  RunFixture& operator=(const RunFixture&) = delete;
  /// Removes the work directory when Setup created it.
  ~RunFixture();

  /// Uses options.work_dir, or a fresh directory under the system temp root
  /// named after (name, seed, pid); then generates `rows` synthetic rows and
  /// the query pool from DeriveSeed(seed, SeedStream::kData).
  Status Setup(const std::string& name, uint64_t seed, size_t dim,
               size_t rows, const RunOptions& options);

  const std::string& work_dir() const { return work_dir_; }
  const SyntheticData& data() const { return data_; }

  /// A query vector from the pool, chosen with one draw from `rng`.
  const float* DrawQueryVector(Rng* rng) const;

 private:
  std::string work_dir_;
  bool own_work_dir_ = false;
  SyntheticData data_;
  std::vector<float> query_pool_;
};

/// A window of round(frac * committed) timestamps (at least one), placed
/// uniformly inside [0, committed) with one draw from `rng`. Synthetic
/// timestamps are 0..n-1, so that is the committed time range.
TimeWindow PlaceWindow(double frac, size_t committed, Rng* rng);

/// The kQuery event's packed payload c (see EventKind::kQuery). k and the
/// result size take 16 bits, the fan-out fields 8; single-index runs leave
/// the fan-out fields 0.
uint64_t PackQueryMeta(const SearchResult& result, size_t k,
                       size_t shards_ok = 0, size_t shards_selected = 0,
                       size_t hedges = 0);

/// Query tallies of one thread. The driver thread keeps one; each reader
/// thread fills its own, merged by the driver after the join so the readers
/// stay lock-free.
struct QueryTally {
  size_t queries = 0;     ///< attempts, including shed and failed ones
  size_t complete = 0;
  size_t degraded = 0;
  size_t shed = 0;
  size_t view_calls = 0;  ///< extra SearchView calls (recall sampling)
  size_t hedges = 0;
  size_t shard_retries = 0;
  size_t partial_results = 0;
  MeanSink recall;
  PercentileSink overshoot;
  std::vector<Violation> violations;  ///< a reader keeps its first few

  /// Counts an answered query as complete or degraded.
  void CountResult(const SearchResult& result) {
    ++(result.degraded() ? degraded : complete);
  }
  void AddViolation(InvariantId id, std::string detail);
  /// Folds in another tally's counters and samples (not its violations).
  void MergeFrom(const QueryTally& other);
  /// Writes the counters and the recall/overshoot summaries into `stats`.
  void FoldInto(ScenarioStats* stats) const;
};

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_DRIVER_H_
