// Scenario harness for the sharded serving layer (src/shard).
//
// Shares the scenario harness (scenario/driver.h: EventLog, invariants,
// RunFixture, QueryTally, seed-derived streams) with the single-index driver
// but runs its own flight plan against a ShardedMbi plus a single-index
// oracle over the same rows, because the properties worth checking here live
// at the fan-out layer, not inside one index:
//
//   I7 shard-oracle-match  whenever every selected shard answered (full
//                          coverage, nothing quarantined) and the sharded
//                          index holds the same rows as the oracle, the
//                          k-way merge must hash bit-identical to the exact
//                          oracle top-k. Specs use kFlat blocks so both
//                          sides are exact and the comparison is exact.
//   I8 shard-retry-budget  every probe consumes at most backoff.max_retries
//                          shed retries per chain (two chains when hedged) —
//                          retry storms are bounded by construction.
//   I4 degraded-never-invalid — every merged result, partial or complete,
//                          passes scenario::CheckResultValidity against the
//                          oracle: in-window rows, honest distances, sorted,
//                          no duplicate ids.
//   I3 p99-overshoot       as in the core catalog, over the concurrent
//                          storm's deadline-bounded queries
//
// Two catalog scenarios:
//
//   shard_brownout       one shard turns slow + sheddy mid-run (hedges fire,
//                        backoff retries absorb sheds), then goes fully
//                        black for a slice (retries exhaust, queries degrade
//                        to partial coverage), then recovers; an operator
//                        quarantine + checkpoint/recover revival rides the
//                        epilogue
//   shard_crash_requery  per-shard checkpoints through seed-derived
//                        fault-injecting file systems mid-ingest; the target
//                        shard "loses its machine" after ingest, queries
//                        degrade around the hole, RecoverShard restores the
//                        checkpointed prefix (I1: acknowledged rows come
//                        back bit-identical), AppendToShard backfills the
//                        lost tail, and an epilogue proves the repaired
//                        fleet bit-matches the oracle again
//
// Deterministic mode is serial and replayable: equal (spec, seed) runs give
// equal event-log fingerprints (injected probe delays are simulated, hedge
// decisions follow simulated latency). Concurrent mode runs a real query
// storm from N threads against the pool-backed fan-out with real injected
// delays and sheds, racing a mid-storm checkpoint/quarantine/recover cycle —
// the TSan target for the scatter-gather paths.

#ifndef MBI_SHARD_SHARD_SCENARIO_H_
#define MBI_SHARD_SHARD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/driver.h"
#include "shard/sharded_mbi.h"
#include "util/status.h"

namespace mbi::shard {

/// A sharded scenario: fleet shape + workload + fault windows + bounds.
/// Fault windows are expressed as fractions of the ingest (row i is inside
/// window [b, e) when b*adds <= i < e*adds), so short and soak variants
/// stress the same phases of the run.
struct ShardScenarioSpec {
  std::string name;
  uint64_t seed = 42;

  size_t dim = 8;
  Metric metric = Metric::kL2;

  /// Fleet configuration. Catalog specs use BlockIndexKind::kFlat shards so
  /// the shard-oracle-match invariant compares exact against exact.
  ShardedMbiParams sharded;

  size_t adds = 0;
  double queries_per_add = 0.5;
  std::vector<double> window_fractions = {0.25, 1.0};
  std::vector<size_t> ks = {1, 10};

  /// The shard targeted by faults (brownout, crash, quarantine).
  size_t fault_shard = 1;

  /// Brownout: while the ingest is inside [begin, end), probes of
  /// fault_shard gain brownout_delay_seconds of latency (simulated in
  /// deterministic mode) and shed with brownout_shed_prob. Delay at or
  /// above hedge_delay_seconds makes hedges fire; sheds exercise backoff.
  double brownout_begin_frac = 0.0;
  double brownout_end_frac = 0.0;
  double brownout_delay_seconds = 0.0;
  double brownout_shed_prob = 0.0;

  /// Blackout: a sub-window where fault_shard sheds every probe, so both
  /// chains exhaust their retry budgets and queries return partial results.
  double blackout_begin_frac = 0.0;
  double blackout_end_frac = 0.0;

  /// Epilogue A (brownout spec): checkpoint fault_shard, quarantine it by
  /// operator action, prove queries degrade-but-validate around the hole,
  /// then RecoverShard and prove full-coverage oracle matches resume.
  bool quarantine_recover_epilogue = false;

  /// Crash/requery flight plan (crash spec): checkpoint every shard at its
  /// mid-fill through a per-shard fault-injecting file system whose
  /// schedule derives from DeriveSeed(seed, "shard/<i>"); fault_shard also
  /// gets a clean checkpoint, crashes after ingest, recovers the
  /// checkpointed prefix, and is backfilled row by row. Concurrent mode
  /// takes only the clean checkpoint and runs the crash leg after the storm.
  bool crash_requery = false;

  /// Queries issued by each epilogue leg (and per storm thread in
  /// concurrent mode).
  size_t epilogue_queries = 40;

  /// Mean-recall floor vs the exact oracle (sampled queries, including
  /// degraded ones — partial coverage is allowed to cost recall, bounded).
  double recall_floor = 0.75;
  size_t oracle_sample_every = 3;

  /// Concurrent mode: storm reader threads, and the wall-clock deadline a
  /// seed-derived half of storm queries carries (0 = all unbounded). The
  /// bounded ones feed I3's overshoot samples.
  size_t query_threads = 3;
  double storm_deadline_seconds = 0.0;

  Status Validate() const;
};

/// Runs `spec` under options.mode. Non-OK only when the harness itself
/// cannot run (bad spec, unusable work dir); invariant breaks land in the
/// outcome's violation list.
Result<scenario::ScenarioOutcome> RunShardScenario(
    const ShardScenarioSpec& spec, const scenario::RunOptions& options);

/// Names of the sharded scenarios, in catalog order.
std::vector<std::string> ShardCatalogNames();

/// The named sharded scenario; `soak` scales adds and storm threads ~4x.
/// NotFound for names outside the catalog.
Result<ShardScenarioSpec> GetShardScenario(const std::string& name,
                                           uint64_t seed, bool soak = false);

/// Both catalogs in order: the single-index scenarios (scenario/catalog.h),
/// then the sharded ones.
std::vector<std::string> AllCatalogNames();

/// Runs the named scenario of either catalog with RunScenario or
/// RunShardScenario. NotFound for names outside both.
Result<scenario::ScenarioOutcome> RunCatalogScenario(
    const std::string& name, uint64_t seed, bool soak,
    const scenario::RunOptions& options);

}  // namespace mbi::shard

#endif  // MBI_SHARD_SHARD_SCENARIO_H_
