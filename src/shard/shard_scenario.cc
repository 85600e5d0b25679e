#include "shard/shard_scenario.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "eval/recall.h"
#include "persist/fault_injection.h"
#include "persist/file.h"
#include "scenario/catalog.h"
#include "scenario/invariants.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mbi::shard {

using scenario::EventKind;
using scenario::InvariantId;
using scenario::QueryTally;
using scenario::RunMode;
using scenario::RunOptions;
using scenario::ScenarioOutcome;
using scenario::Violation;

namespace {

// The brownout fault model: while active, probes of the target shard gain
// `delay_seconds` of latency and shed with `shed_prob` (probability 1.0 =
// blackout). Draws come from one seed-derived stream per shard
// (scenario::DeriveSeed(seed, "shard/<i>")), so each shard's fault schedule
// is independent of every other's and of how often they are probed relative
// to a different-seeded run. Thread-safe: concurrent probes serialize on mu_.
class BrownoutInjector final : public ShardFaultInjector {
 public:
  BrownoutInjector(uint64_t scenario_seed, size_t target, size_t num_shards)
      : target_(target) {
    rngs_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      rngs_.emplace_back(
          scenario::DeriveSeed(scenario_seed, "shard/" + std::to_string(i)));
    }
  }

  void Set(double delay_seconds, double shed_prob,
           double retry_after_seconds) MBI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    delay_seconds_ = delay_seconds;
    shed_prob_ = shed_prob;
    retry_after_seconds_ = retry_after_seconds;
  }

  void Clear() MBI_EXCLUDES(mu_) { Set(0.0, 0.0, 0.0); }

  size_t sheds_injected() const MBI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return sheds_injected_;
  }

  ShardProbeFault OnProbe(size_t shard_index, uint32_t attempt) override
      MBI_EXCLUDES(mu_) {
    (void)attempt;
    MutexLock lock(mu_);
    ShardProbeFault fault;
    if (shard_index != target_ || shard_index >= rngs_.size()) return fault;
    if (delay_seconds_ <= 0.0 && shed_prob_ <= 0.0) return fault;
    fault.delay_seconds = delay_seconds_;
    if (shed_prob_ > 0.0 && rngs_[shard_index].NextDouble() < shed_prob_) {
      ++sheds_injected_;
      fault.status =
          Status::ResourceExhausted("injected shard overload (scenario)")
              .WithRetryAfter(retry_after_seconds_);
    }
    return fault;
  }

 private:
  const size_t target_;
  mutable Mutex mu_;
  std::vector<Rng> rngs_ MBI_GUARDED_BY(mu_);
  double delay_seconds_ MBI_GUARDED_BY(mu_) = 0.0;
  double shed_prob_ MBI_GUARDED_BY(mu_) = 0.0;
  double retry_after_seconds_ MBI_GUARDED_BY(mu_) = 0.0;
  size_t sheds_injected_ MBI_GUARDED_BY(mu_) = 0;
};

// Counts one answered scatter-gather into `tally`: its outcome, fan-out
// and the probes that shed.
void CountFanout(const SearchResult& result, const ShardQueryTrace& trace,
                 QueryTally* tally) {
  tally->CountResult(result);
  tally->hedges += trace.hedges_fired;
  tally->shard_retries += trace.retries_total;
  if (trace.shards_ok < trace.shards_selected) ++tally->partial_results;
  for (const ShardQueryTrace::Probe& p : trace.probes) {
    if (!p.ok && !p.quarantined) ++tally->shed;
  }
}

class ShardDriver {
 public:
  ShardDriver(const ShardScenarioSpec& spec, const RunOptions& opts)
      : spec_(spec),
        opts_(opts),
        query_rng_(scenario::DeriveSeed(spec.seed,
                                        scenario::SeedStream::kQueryPick)) {}

  Result<ScenarioOutcome> Run() {
    MBI_RETURN_IF_ERROR(spec_.Validate());
    MBI_RETURN_IF_ERROR(Setup());
    WallTimer timer;
    Status st = opts_.mode == RunMode::kDeterministic ? RunDeterministic()
                                                      : RunConcurrent();
    outcome_.stats.wall_seconds = timer.ElapsedSeconds();
    MBI_RETURN_IF_ERROR(std::move(st));
    Finish();
    return std::move(outcome_);
  }

 private:
  size_t NumShards() const {
    return (spec_.adds + static_cast<size_t>(spec_.sharded.shard_span) - 1) /
           static_cast<size_t>(spec_.sharded.shard_span);
  }

  Status Setup() {
    outcome_.name = spec_.name;
    outcome_.seed = spec_.seed;
    outcome_.mode = opts_.mode;
    MBI_RETURN_IF_ERROR(fixture_.Setup(spec_.name, spec_.seed, spec_.dim,
                                       spec_.adds, opts_));

    ShardedMbiParams params = spec_.sharded;
    if (opts_.mode == RunMode::kConcurrent &&
        params.num_search_threads < 2) {
      params.num_search_threads = 4;  // pool-backed fan-out is the point
    }
    if (opts_.mode == RunMode::kDeterministic) {
      params.num_search_threads = 0;  // serial, replayable
    }
    sharded_ = std::make_unique<ShardedMbi>(spec_.dim, spec_.metric, params);

    // The oracle side: the same rows in the same arrival order, scanned
    // exactly. ShardedMbi global ids are bit-compatible with this store's
    // row ids — the identity I7 rests on.
    oracle_ = std::make_unique<VectorStore>(spec_.dim, spec_.metric);

    injector_ = std::make_shared<BrownoutInjector>(
        spec_.seed, spec_.fault_shard, NumShards());
    sharded_->SetFaultInjectorForTesting(injector_);
    return Status::Ok();
  }

  void AddViolation(InvariantId id, const std::string& detail) {
    if (outcome_.violations.size() < 32) {
      outcome_.violations.push_back(Violation{id, detail});
    }
  }

  Status IngestRow(size_t row) {
    const SyntheticData& data = fixture_.data();
    MBI_RETURN_IF_ERROR(sharded_->Add(data.vector(row), data.timestamps[row]));
    MBI_RETURN_IF_ERROR(
        oracle_->Append(data.vector(row), data.timestamps[row]));
    ++outcome_.stats.add_ops;
    return Status::Ok();
  }

  struct QueryDraw {
    const float* vector = nullptr;
    TimeWindow window;
    size_t k = 10;
    uint64_t ctx_seed = 0;
  };

  QueryDraw DrawQuery(size_t committed, Rng* rng) {
    QueryDraw q;
    q.vector = fixture_.DrawQueryVector(rng);
    const double frac =
        spec_.window_fractions[rng->NextBounded(spec_.window_fractions.size())];
    q.k = spec_.ks[rng->NextBounded(spec_.ks.size())];
    q.window = scenario::PlaceWindow(frac, committed, rng);
    q.ctx_seed = rng->Next();
    return q;
  }

  // I8: retries are bounded per chain; a hedged probe runs two chains.
  std::string CheckRetryBudget(const ShardQueryTrace& trace) const {
    const uint32_t per_chain = spec_.sharded.backoff.max_retries;
    for (const ShardQueryTrace::Probe& p : trace.probes) {
      const uint32_t bound = per_chain * (p.hedged ? 2 : 1);
      if (p.retries > bound) {
        return "shard " + std::to_string(p.shard_index) + " consumed " +
               std::to_string(p.retries) + " retries > bound " +
               std::to_string(bound);
      }
    }
    return "";
  }

  // One deterministic-path query: issue, validate, compare to the oracle
  // when coverage is full, log.
  void DeterministicQuery(uint32_t phase, bool expect_full_coverage) {
    const size_t committed = oracle_->size();
    if (committed == 0) return;
    QueryDraw q = DrawQuery(committed, &query_rng_);
    SearchParams sp;
    sp.k = q.k;
    QueryContext ctx(q.ctx_seed);
    ShardQueryTrace trace;
    Result<SearchResult> res =
        sharded_->Search(q.vector, q.window, sp, &ctx, &trace);
    ++tally_.queries;
    if (!res.ok()) {
      // min_result_coverage is 0 in every catalog spec: shard faults must
      // degrade, never error.
      AddViolation(InvariantId::kResultValidity,
                   "query " + std::to_string(query_ordinal_) +
                       " returned an error instead of degrading: " +
                       res.status().ToString());
      ++query_ordinal_;
      return;
    }
    const SearchResult& result = res.value();
    CountFanout(result, trace, &tally_);
    // Partial coverage must be flagged: a short-handed merge that calls
    // itself complete is a lie to the caller.
    if (trace.shards_ok < trace.shards_selected && !result.degraded()) {
      AddViolation(InvariantId::kResultValidity,
                   "query " + std::to_string(query_ordinal_) +
                       " lost shards but reported kComplete");
    }

    // I4 against the oracle store: the same rows under the same global ids,
    // never written while storm readers run.
    std::string bad = scenario::CheckResultValidity(
        *oracle_, committed, q.window, q.vector, q.k, result);
    if (!bad.empty()) {
      AddViolation(InvariantId::kResultValidity,
                   "query " + std::to_string(query_ordinal_) + ": " + bad);
    }
    bad = CheckRetryBudget(trace);
    if (!bad.empty()) {
      AddViolation(InvariantId::kShardRetryBudget,
                   "query " + std::to_string(query_ordinal_) + ": " + bad);
    }

    // I7: with every selected shard answering and the fleet holding the
    // same rows as the oracle, the merge must be bit-identical to the exact
    // oracle top-k.
    const bool full_coverage =
        trace.shards_selected > 0 && trace.shards_ok == trace.shards_selected;
    if (full_coverage && sharded_->size() == committed) {
      const SearchResult exact = scenario::ExactOracleTopK(
          *oracle_, committed, q.vector, q.k, q.window);
      if (scenario::HashResult(result) != scenario::HashResult(exact)) {
        AddViolation(InvariantId::kShardOracleMatch,
                     "query " + std::to_string(query_ordinal_) +
                         " merge diverged from the single-index oracle (k=" +
                         std::to_string(q.k) + ", window [" +
                         std::to_string(q.window.start) + ", " +
                         std::to_string(q.window.end) + "))");
      }
    } else if (expect_full_coverage) {
      AddViolation(InvariantId::kShardOracleMatch,
                   "query " + std::to_string(query_ordinal_) +
                       " expected full coverage, got " +
                       std::to_string(trace.shards_ok) + "/" +
                       std::to_string(trace.shards_selected));
    }

    if (spec_.oracle_sample_every != 0 &&
        query_ordinal_ % spec_.oracle_sample_every == 0) {
      const SearchResult exact = scenario::ExactOracleTopK(
          *oracle_, committed, q.vector, q.k, q.window);
      tally_.recall.Add(RecallAtK(result, exact, q.k));
    }

    outcome_.log.Append(
        EventKind::kQuery, phase, query_ordinal_, scenario::HashResult(result),
        scenario::PackQueryMeta(result, q.k, trace.shards_ok,
                                trace.shards_selected, trace.hedges_fired));
    if (trace.hedges_fired > 0) {
      outcome_.log.Append(EventKind::kHedge, phase, query_ordinal_,
                          trace.hedges_fired);
    }
    ++query_ordinal_;
  }

  // Checkpoints shard `i` through a fault-injecting file system armed from
  // the shard's own seed stream; logs commit or fault. Returns whether the
  // checkpoint committed.
  bool FaultyCheckpoint(uint32_t phase, size_t i, const std::string& dir) {
    persist::FaultScheduleParams fp;
    fp.seed = scenario::DeriveSeed(spec_.seed, "shard/" + std::to_string(i));
    fp.byte_span = 1 << 16;
    fp.write_fault_probability = 0.5;
    fp.allow_crash = false;  // the fs is reused across retries of the run
    persist::FaultScheduleGenerator gen(fp);
    persist::FaultInjectingFileSystem ffs(persist::FileSystem::Posix());
    ffs.SetPlan(gen.Next());

    Result<std::shared_ptr<const MbiIndex>> pinned = sharded_->shard(i);
    const uint64_t size_now = pinned.ok() ? pinned.value()->size() : 0;
    outcome_.log.Append(EventKind::kCheckpointBegin, phase, size_now);
    Status st = sharded_->CheckpointShard(i, dir, &ffs);
    if (st.ok()) {
      ++outcome_.stats.checkpoints_committed;
      outcome_.log.Append(EventKind::kCheckpointCommit, phase, size_now);
      return true;
    }
    ++outcome_.stats.checkpoint_faults;
    outcome_.log.Append(EventKind::kCheckpointFault, phase, size_now,
                        static_cast<uint64_t>(st.code()));
    // A quarantining failure (kDataLoss/kUnavailable) takes the shard out
    // of rotation organically. The in-RAM instance is intact, so the
    // repair is a clean checkpoint of it plus a recover — the same cycle
    // an operator would run.
    if (!sharded_->shard_healthy(i)) {
      ++outcome_.stats.quarantines;
      outcome_.log.Append(EventKind::kQuarantine, phase, i,
                          static_cast<uint64_t>(st.code()));
      const std::string revive_dir = dir + "_revive";
      if (sharded_->CheckpointShard(i, revive_dir).ok() &&
          sharded_->RecoverShard(i, revive_dir).ok()) {
        ++outcome_.stats.recoveries;
        outcome_.log.Append(EventKind::kRecover, phase, i);
      }
    }
    return false;
  }

  // Checkpoints the crash target into `dir` with no faults injected and
  // returns the rows it acknowledged: what the crash/requery leg recovers.
  Result<size_t> CleanCheckpoint(const std::string& dir) {
    MBI_RETURN_IF_ERROR(sharded_->CheckpointShard(spec_.fault_shard, dir));
    Result<std::shared_ptr<const MbiIndex>> pinned =
        sharded_->shard(spec_.fault_shard);
    const size_t acked = pinned.ok() ? pinned.value()->size() : 0;
    ++outcome_.stats.checkpoints_committed;
    outcome_.log.Append(EventKind::kCheckpointCommit, 0, acked);
    return acked;
  }

  // I1 after a recovery: every row the clean checkpoint acknowledged must
  // be back, bit-identical to what was ingested.
  void CheckRecoveredShard(size_t i, size_t acked_rows) {
    Result<std::shared_ptr<const MbiIndex>> pinned = sharded_->shard(i);
    Result<int64_t> base = sharded_->shard_base(i);
    if (!pinned.ok() || !base.ok()) {
      AddViolation(InvariantId::kNoLostAckedWrites,
                   "recovered shard " + std::to_string(i) +
                       " is not reachable");
      return;
    }
    const VectorStore& store = pinned.value()->store();
    if (store.size() != acked_rows) {
      AddViolation(InvariantId::kNoLostAckedWrites,
                   "shard " + std::to_string(i) + " recovered " +
                       std::to_string(store.size()) + " rows, checkpoint "
                       "acknowledged " + std::to_string(acked_rows));
      return;
    }
    const size_t bad_row = scenario::FirstDifferingRow(
        store, acked_rows, fixture_.data(), static_cast<size_t>(base.value()));
    if (bad_row < acked_rows) {
      AddViolation(InvariantId::kNoLostAckedWrites,
                   "shard " + std::to_string(i) + " row " +
                       std::to_string(bad_row) +
                       " differs from the ingested bits after recovery");
    }
  }

  Status RunDeterministic() {
    const scenario::CounterDeltas counters(
        {"mbi_shard_hedges_total", "mbi_shard_retries_total",
         "mbi_shard_partial_results_total"});

    const size_t adds = spec_.adds;
    const auto frac_row = [adds](double f) {
      return static_cast<size_t>(f * static_cast<double>(adds));
    };
    const size_t brownout_begin = frac_row(spec_.brownout_begin_frac);
    const size_t brownout_end = frac_row(spec_.brownout_end_frac);
    const size_t blackout_begin = frac_row(spec_.blackout_begin_frac);
    const size_t blackout_end = frac_row(spec_.blackout_end_frac);
    const bool has_brownout = brownout_end > brownout_begin;
    const bool has_blackout = blackout_end > blackout_begin;
    const size_t span = static_cast<size_t>(spec_.sharded.shard_span);

    outcome_.log.Append(EventKind::kPhaseStart, 0);
    double credit = 0.0;
    size_t acked_fault_shard = 0;
    const std::string clean_dir = fixture_.work_dir() + "/clean";
    for (size_t row = 0; row < adds; ++row) {
      // Fault-window transitions, in row order so the log is replayable.
      if (has_brownout && row == brownout_begin) {
        outcome_.log.Append(EventKind::kPhaseStart, 1);
        injector_->Set(spec_.brownout_delay_seconds, spec_.brownout_shed_prob,
                       spec_.sharded.shard.shed_retry_after_seconds);
      }
      if (has_blackout && row == blackout_begin) {
        outcome_.log.Append(EventKind::kPhaseStart, 2);
        injector_->Set(spec_.brownout_delay_seconds, 1.0,
                       spec_.sharded.shard.shed_retry_after_seconds);
      }
      if (has_blackout && row == blackout_end) {
        outcome_.log.Append(EventKind::kPhaseEnd, 2);
        injector_->Set(spec_.brownout_delay_seconds, spec_.brownout_shed_prob,
                       spec_.sharded.shard.shed_retry_after_seconds);
      }
      if (has_brownout && row == brownout_end) {
        outcome_.log.Append(EventKind::kPhaseEnd, 1);
        injector_->Clear();
      }

      MBI_RETURN_IF_ERROR(IngestRow(row));
      outcome_.log.Append(EventKind::kAddAck, 0, row);

      // Crash flight plan: checkpoint each shard at its mid-fill through
      // its own fault-schedule stream; the crash target also gets a clean
      // checkpoint (its acknowledged prefix) for the recovery leg.
      if (spec_.crash_requery && span > 0 && row % span == span / 2) {
        const size_t shard_i = row / span;
        FaultyCheckpoint(0, shard_i,
                         fixture_.work_dir() + "/faulty_" +
                             std::to_string(shard_i));
        if (shard_i == spec_.fault_shard) {
          Result<size_t> acked = CleanCheckpoint(clean_dir);
          MBI_RETURN_IF_ERROR(acked.status());
          acked_fault_shard = acked.value();
        }
      }

      credit += spec_.queries_per_add;
      while (credit >= 1.0) {
        credit -= 1.0;
        DeterministicQuery(0, /*expect_full_coverage=*/false);
      }
    }
    outcome_.log.Append(EventKind::kPhaseEnd, 0);

    if (spec_.quarantine_recover_epilogue) {
      MBI_RETURN_IF_ERROR(RunQuarantineRecoverEpilogue());
    }
    if (spec_.crash_requery) {
      MBI_RETURN_IF_ERROR(RunCrashRequery(acked_fault_shard, clean_dir));
    }

    // I5 for the shard layer: the process-wide counters must have moved
    // exactly as often as the driver observed the corresponding outcome
    // (single-threaded run, so the deltas are exact).
    for (const std::string& m : counters.Mismatches(
             {tally_.hedges, tally_.shard_retries, tally_.partial_results})) {
      AddViolation(InvariantId::kMetricsConsistency, m);
    }
    return Status::Ok();
  }

  // Epilogue A: operator quarantine of a healthy shard, degraded-but-valid
  // queries around the hole, checkpoint/recover revival, full-coverage
  // oracle matches after.
  Status RunQuarantineRecoverEpilogue() {
    const std::string dir = fixture_.work_dir() + "/quarantine_ck";
    MBI_RETURN_IF_ERROR(sharded_->CheckpointShard(spec_.fault_shard, dir));
    ++outcome_.stats.checkpoints_committed;
    Result<std::shared_ptr<const MbiIndex>> pinned =
        sharded_->shard(spec_.fault_shard);
    outcome_.log.Append(EventKind::kCheckpointCommit, 3,
                        pinned.ok() ? pinned.value()->size() : 0);

    MBI_RETURN_IF_ERROR(sharded_->QuarantineShard(
        spec_.fault_shard, Status::Unavailable("operator quarantine")));
    ++outcome_.stats.quarantines;
    outcome_.log.Append(EventKind::kQuarantine, 3, spec_.fault_shard,
                        static_cast<uint64_t>(StatusCode::kUnavailable));

    outcome_.log.Append(EventKind::kPhaseStart, 3);
    for (size_t i = 0; i < spec_.epilogue_queries; ++i) {
      DeterministicQuery(3, /*expect_full_coverage=*/false);
    }
    outcome_.log.Append(EventKind::kPhaseEnd, 3);

    MBI_RETURN_IF_ERROR(sharded_->RecoverShard(spec_.fault_shard, dir));
    ++outcome_.stats.recoveries;
    pinned = sharded_->shard(spec_.fault_shard);
    const size_t recovered = pinned.ok() ? pinned.value()->size() : 0;
    outcome_.log.Append(EventKind::kRecover, 3, recovered);
    CheckRecoveredShard(spec_.fault_shard, recovered);
    if (!sharded_->shard_healthy(spec_.fault_shard)) {
      AddViolation(InvariantId::kNoLostAckedWrites,
                   "shard not back in rotation after RecoverShard");
    }

    outcome_.log.Append(EventKind::kPhaseStart, 4);
    for (size_t i = 0; i < spec_.epilogue_queries; ++i) {
      DeterministicQuery(4, /*expect_full_coverage=*/true);
    }
    outcome_.log.Append(EventKind::kPhaseEnd, 4);
    return Status::Ok();
  }

  // The crash/requery flight plan: the target shard loses its machine after
  // ingest, queries degrade around the hole, recovery restores the clean
  // checkpoint's prefix (I1), AppendToShard backfills the lost tail, and an
  // epilogue proves the repaired fleet matches the oracle again.
  Status RunCrashRequery(size_t acked_rows, const std::string& clean_dir) {
    if (acked_rows == 0) {
      return Status::Internal(
          "crash_requery spec never checkpointed the target shard");
    }
    Result<std::shared_ptr<const MbiIndex>> pinned =
        sharded_->shard(spec_.fault_shard);
    Result<int64_t> base = sharded_->shard_base(spec_.fault_shard);
    MBI_RETURN_IF_ERROR(pinned.status());
    MBI_RETURN_IF_ERROR(base.status());
    const size_t live_rows = pinned.value()->size();
    ++outcome_.stats.crashes;
    outcome_.log.Append(EventKind::kCrash, 5, live_rows, acked_rows);
    MBI_RETURN_IF_ERROR(sharded_->QuarantineShard(
        spec_.fault_shard,
        Status::Unavailable("machine lost (scenario crash)")));
    ++outcome_.stats.quarantines;
    outcome_.log.Append(EventKind::kQuarantine, 5, spec_.fault_shard,
                        static_cast<uint64_t>(StatusCode::kUnavailable));

    outcome_.log.Append(EventKind::kPhaseStart, 5);
    for (size_t i = 0; i < spec_.epilogue_queries; ++i) {
      DeterministicQuery(5, /*expect_full_coverage=*/false);
    }
    outcome_.log.Append(EventKind::kPhaseEnd, 5);

    // The replacement machine loads the checkpointed prefix.
    MBI_RETURN_IF_ERROR(sharded_->RecoverShard(spec_.fault_shard, clean_dir));
    ++outcome_.stats.recoveries;
    outcome_.log.Append(EventKind::kRecover, 5, acked_rows);
    CheckRecoveredShard(spec_.fault_shard, acked_rows);

    // Backfill the lost tail row by row (repair path), then requery.
    const SyntheticData& data = fixture_.data();
    const size_t global_base = static_cast<size_t>(base.value());
    for (size_t local = acked_rows; local < live_rows; ++local) {
      const size_t global = global_base + local;
      MBI_RETURN_IF_ERROR(sharded_->AppendToShard(
          spec_.fault_shard, data.vector(global), data.timestamps[global]));
      ++outcome_.stats.add_ops;
      outcome_.log.Append(EventKind::kAddAck, 6, global);
    }

    outcome_.log.Append(EventKind::kPhaseStart, 6);
    for (size_t i = 0; i < spec_.epilogue_queries; ++i) {
      DeterministicQuery(6, /*expect_full_coverage=*/true);
    }
    outcome_.log.Append(EventKind::kPhaseEnd, 6);
    return Status::Ok();
  }

  // Concurrent mode: ingest everything, then a query storm from N threads
  // against the pool-backed fan-out with real injected delays and sheds,
  // racing a driver-thread checkpoint/quarantine/recover cycle on the
  // target shard; a fault-free epilogue re-establishes oracle matches. A
  // crash_requery spec checkpoints the target shard at its mid-fill during
  // ingest and runs the crash/requery flight plan after the epilogue.
  Status RunConcurrent() {
    const size_t span = static_cast<size_t>(spec_.sharded.shard_span);
    const size_t clean_row = spec_.fault_shard * span + span / 2;
    const std::string clean_dir = fixture_.work_dir() + "/clean";
    size_t acked_fault_shard = 0;
    outcome_.log.Append(EventKind::kPhaseStart, 0);
    for (size_t row = 0; row < spec_.adds; ++row) {
      MBI_RETURN_IF_ERROR(IngestRow(row));
      if (spec_.crash_requery && row == clean_row) {
        Result<size_t> acked = CleanCheckpoint(clean_dir);
        MBI_RETURN_IF_ERROR(acked.status());
        acked_fault_shard = acked.value();
      }
    }
    outcome_.log.Append(EventKind::kPhaseEnd, 0);

    injector_->Set(spec_.brownout_delay_seconds, spec_.brownout_shed_prob,
                   spec_.sharded.shard.shed_retry_after_seconds);
    const size_t threads = std::max<size_t>(1, spec_.query_threads);
    const size_t queries_per_thread = spec_.epilogue_queries * 4;
    std::vector<QueryTally> aggs(threads);
    outcome_.log.Append(EventKind::kPhaseStart, 1);
    {
      // Makes bounded storm queries expensive enough that their deadline
      // overshoot measures the library's polling granularity (I3).
      budget_testing::ScopedDistanceDelay delay_guard(
          opts_.injected_distance_delay_nanos);
      ThreadPool storm(threads);
      for (size_t t = 0; t < threads; ++t) {
        const uint64_t seed = scenario::DeriveSeed(
            spec_.seed, scenario::SeedStream::kThreads, t + 1);
        storm.Submit([this, t, seed, queries_per_thread, &aggs] {
          StormLoop(seed, queries_per_thread, &aggs[t]);
        });
      }
      // Mid-storm, the target shard "migrates": checkpoint, quarantine,
      // recover — racing live scatter-gathers, which must keep answering
      // (degraded at worst) through the swap.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::string dir = fixture_.work_dir() + "/storm_ck";
      Status st = sharded_->CheckpointShard(spec_.fault_shard, dir);
      if (st.ok()) {
        ++outcome_.stats.checkpoints_committed;
        outcome_.log.Append(EventKind::kCheckpointCommit, 1);
        MBI_RETURN_IF_ERROR(sharded_->QuarantineShard(
            spec_.fault_shard, Status::Unavailable("storm migration")));
        ++outcome_.stats.quarantines;
        outcome_.log.Append(EventKind::kQuarantine, 1, spec_.fault_shard,
                            static_cast<uint64_t>(StatusCode::kUnavailable));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        MBI_RETURN_IF_ERROR(sharded_->RecoverShard(spec_.fault_shard, dir));
        ++outcome_.stats.recoveries;
        outcome_.log.Append(EventKind::kRecover, 1);
      } else {
        ++outcome_.stats.checkpoint_faults;
        outcome_.log.Append(EventKind::kCheckpointFault, 1, 0,
                            static_cast<uint64_t>(st.code()));
      }
    }  // storm pool drains + joins here
    outcome_.log.Append(EventKind::kPhaseEnd, 1);
    injector_->Clear();

    for (const QueryTally& agg : aggs) {
      tally_.MergeFrom(agg);
      for (const Violation& v : agg.violations) AddViolation(v.id, v.detail);
    }

    // Fault-free epilogue on the driver thread, still through the pool:
    // full coverage, so every query must bit-match the oracle.
    outcome_.log.Append(EventKind::kPhaseStart, 2);
    for (size_t i = 0; i < spec_.epilogue_queries; ++i) {
      DeterministicQuery(2, /*expect_full_coverage=*/true);
    }
    outcome_.log.Append(EventKind::kPhaseEnd, 2);
    if (spec_.crash_requery) {
      MBI_RETURN_IF_ERROR(RunCrashRequery(acked_fault_shard, clean_dir));
    }
    return Status::Ok();
  }

  void StormLoop(uint64_t seed, size_t queries, QueryTally* agg) {
    Rng rng(seed);
    QueryContext ctx(rng.Next());
    const size_t committed = oracle_->size();
    for (size_t i = 0; i < queries; ++i) {
      QueryDraw q = DrawQuery(committed, &rng);
      SearchParams sp;
      sp.k = q.k;
      QueryBudget budget;
      const bool bounded =
          spec_.storm_deadline_seconds > 0.0 && rng.NextDouble() < 0.5;
      if (bounded) {
        budget = QueryBudget::WithDeadline(spec_.storm_deadline_seconds);
        sp.budget = &budget;
      }
      ShardQueryTrace trace;
      WallTimer timer;
      Result<SearchResult> res =
          sharded_->Search(q.vector, q.window, sp, &ctx, &trace);
      const double elapsed = timer.ElapsedSeconds();
      ++agg->queries;
      if (!res.ok()) {
        agg->AddViolation(
            InvariantId::kResultValidity,
            "storm query returned an error instead of degrading: " +
                res.status().ToString());
        continue;
      }
      const SearchResult& result = res.value();
      CountFanout(result, trace, agg);
      if (bounded) agg->overshoot.Add(elapsed / spec_.storm_deadline_seconds);
      // I4 against the oracle store: the same rows under the same global
      // ids, never written while storm readers run.
      std::string bad = scenario::CheckResultValidity(
          *oracle_, committed, q.window, q.vector, q.k, result);
      if (!bad.empty()) {
        agg->AddViolation(InvariantId::kResultValidity, "storm query: " + bad);
      }
      bad = CheckRetryBudget(trace);
      if (!bad.empty()) {
        agg->AddViolation(InvariantId::kShardRetryBudget,
                          "storm query: " + bad);
      }
      // Unbounded full-coverage storm queries are exact even mid-fault:
      // sample them against the oracle for the recall floor.
      if (!bounded && spec_.oracle_sample_every != 0 &&
          i % spec_.oracle_sample_every == 0) {
        const SearchResult exact = scenario::ExactOracleTopK(
            *oracle_, committed, q.vector, q.k, q.window);
        agg->recall.Add(RecallAtK(result, exact, q.k));
      }
    }
  }

  void Finish() {
    outcome_.stats.final_size = sharded_->size();
    size_t blocks = 0;
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      Result<std::shared_ptr<const MbiIndex>> pinned = sharded_->shard(i);
      if (pinned.ok()) blocks += pinned.value()->num_blocks();
    }
    outcome_.stats.final_blocks = blocks;
    tally_.FoldInto(&outcome_.stats);
    const scenario::MeanSink& recall = tally_.recall;
    if (recall.count() > 0 && recall.Mean() < spec_.recall_floor) {
      AddViolation(InvariantId::kRecallFloor,
                   "mean recall " + std::to_string(recall.Mean()) +
                       " below floor " + std::to_string(spec_.recall_floor));
    }
    // I3, judged only on concurrent storms run with an injected delay.
    const std::optional<std::string> overshoot = scenario::CheckOvershoot(
        tally_.overshoot, opts_.injected_distance_delay_nanos,
        scenario::kCatalogP99OvershootFactor);
    if (overshoot.has_value() && !overshoot->empty()) {
      AddViolation(InvariantId::kDeadlineOvershoot, *overshoot);
    }
    const auto log_invariant = [this](InvariantId id) {
      bool pass = true;
      for (const Violation& v : outcome_.violations) {
        if (v.id == id) pass = false;
      }
      outcome_.log.Append(EventKind::kInvariant, 0,
                          static_cast<uint64_t>(id), pass ? 1 : 0);
    };
    log_invariant(InvariantId::kNoLostAckedWrites);
    log_invariant(InvariantId::kRecallFloor);
    log_invariant(InvariantId::kResultValidity);
    log_invariant(InvariantId::kMetricsConsistency);
    log_invariant(InvariantId::kShardOracleMatch);
    log_invariant(InvariantId::kShardRetryBudget);
    if (overshoot.has_value()) log_invariant(InvariantId::kDeadlineOvershoot);
  }

  const ShardScenarioSpec spec_;
  const RunOptions opts_;
  ScenarioOutcome outcome_;
  scenario::RunFixture fixture_;
  std::unique_ptr<ShardedMbi> sharded_;
  std::unique_ptr<VectorStore> oracle_;
  std::shared_ptr<BrownoutInjector> injector_;

  Rng query_rng_;
  uint64_t query_ordinal_ = 0;
  QueryTally tally_;  // every query's tallies; storm readers merged in
};

}  // namespace

Status ShardScenarioSpec::Validate() const {
  if (name.empty()) return Status::InvalidArgument("scenario needs a name");
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (adds == 0) return Status::InvalidArgument("adds must be positive");
  MBI_RETURN_IF_ERROR(sharded.Validate());
  if (window_fractions.empty() || ks.empty()) {
    return Status::InvalidArgument("empty query mix");
  }
  for (double f : window_fractions) {
    if (f <= 0.0 || f > 1.0) {
      return Status::InvalidArgument("window fractions must be in (0, 1]");
    }
  }
  for (size_t k : ks) {
    if (k == 0) return Status::InvalidArgument("k must be positive");
  }
  const size_t num_shards =
      (adds + static_cast<size_t>(sharded.shard_span) - 1) /
      static_cast<size_t>(sharded.shard_span);
  if (fault_shard >= num_shards) {
    return Status::InvalidArgument("fault_shard beyond the fleet");
  }
  const auto frac_ok = [](double b, double e) {
    return b >= 0.0 && e <= 1.0 && b <= e;
  };
  if (!frac_ok(brownout_begin_frac, brownout_end_frac) ||
      !frac_ok(blackout_begin_frac, blackout_end_frac)) {
    return Status::InvalidArgument("fault windows must satisfy 0<=b<=e<=1");
  }
  if (recall_floor < 0.0 || recall_floor > 1.0) {
    return Status::InvalidArgument("recall_floor must be in [0, 1]");
  }
  if (quarantine_recover_epilogue && crash_requery) {
    return Status::InvalidArgument(
        "pick one epilogue: quarantine_recover or crash_requery");
  }
  return Status::Ok();
}

Result<ScenarioOutcome> RunShardScenario(const ShardScenarioSpec& spec,
                                         const RunOptions& options) {
  ShardDriver driver(spec, options);
  return driver.Run();
}

std::vector<std::string> ShardCatalogNames() {
  return {"shard_brownout", "shard_crash_requery"};
}

std::vector<std::string> AllCatalogNames() {
  std::vector<std::string> names = scenario::CatalogNames();
  for (std::string& name : ShardCatalogNames()) {
    names.push_back(std::move(name));
  }
  return names;
}

Result<ScenarioOutcome> RunCatalogScenario(const std::string& name,
                                           uint64_t seed, bool soak,
                                           const RunOptions& options) {
  if (Result<scenario::ScenarioSpec> spec =
          scenario::GetScenario(name, seed, soak);
      spec.ok()) {
    return scenario::RunScenario(spec.value(), options);
  }
  Result<ShardScenarioSpec> spec = GetShardScenario(name, seed, soak);
  if (!spec.ok()) return Status::NotFound("unknown scenario: " + name);
  return RunShardScenario(spec.value(), options);
}

namespace {

// Shared geometry: 4 shards of flat blocks (exact scans) so the
// shard-oracle-match comparison is exact against exact.
ShardScenarioSpec BaseShardSpec(uint64_t seed, bool soak) {
  ShardScenarioSpec spec;
  spec.seed = seed;
  spec.dim = 8;
  spec.adds = soak ? 1600 : 400;
  spec.sharded.shard_span = static_cast<int64_t>(spec.adds / 4);
  spec.sharded.shard.leaf_size = 32;
  spec.sharded.shard.block_kind = BlockIndexKind::kFlat;
  spec.sharded.shard.max_inflight_queries = 0;
  spec.sharded.enable_hedging = true;
  spec.sharded.backoff.max_retries = 2;
  spec.sharded.backoff.initial_seconds = 0.0005;
  spec.sharded.backoff.max_seconds = 0.004;
  spec.sharded.min_result_coverage = 0.0;  // always prefer partial results
  spec.fault_shard = 1;
  spec.queries_per_add = 0.5;
  spec.epilogue_queries = soak ? 120 : 40;
  spec.query_threads = soak ? 6 : 3;
  return spec;
}

}  // namespace

Result<ShardScenarioSpec> GetShardScenario(const std::string& name,
                                           uint64_t seed, bool soak) {
  if (name == "shard_brownout") {
    // One shard turns slow and sheddy mid-run, then fully black for a
    // slice; hedges + backoff absorb the brownout, the blackout degrades
    // queries to partial coverage, and a quarantine/recover epilogue
    // proves revival restores bit-exact merges.
    ShardScenarioSpec spec = BaseShardSpec(seed, soak);
    spec.name = "shard_brownout";
    spec.brownout_begin_frac = 0.30;
    spec.brownout_end_frac = 0.70;
    spec.brownout_delay_seconds = 0.012;  // >= hedge delay: hedges fire
    spec.brownout_shed_prob = 0.45;
    spec.blackout_begin_frac = 0.45;
    spec.blackout_end_frac = 0.55;
    spec.quarantine_recover_epilogue = true;
    spec.recall_floor = 0.70;
    spec.storm_deadline_seconds = 0.25;
    // Concurrent mode sleeps injected delays for real: keep them short but
    // still past the hedge threshold.
    spec.sharded.hedge_delay_seconds = 0.002;
    spec.brownout_delay_seconds = 0.004;
    return spec;
  }
  if (name == "shard_crash_requery") {
    // Per-shard checkpoint fault schedules mid-ingest, a machine loss on
    // the target shard, recovery of the acknowledged prefix, row-by-row
    // backfill of the lost tail, and a requery epilogue.
    ShardScenarioSpec spec = BaseShardSpec(seed, soak);
    spec.name = "shard_crash_requery";
    spec.crash_requery = true;
    spec.recall_floor = 0.70;
    spec.storm_deadline_seconds = 0.25;
    spec.sharded.hedge_delay_seconds = 0.002;
    return spec;
  }
  return Status::NotFound("unknown sharded scenario: " + name);
}

}  // namespace mbi::shard
