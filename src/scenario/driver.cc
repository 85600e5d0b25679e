#include "scenario/driver.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "data/synthetic.h"
#include "eval/recall.h"
#include "mbi/mbi_index.h"
#include "persist/fault_injection.h"
#include "persist/file.h"
#include "util/budget.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mbi::scenario {

namespace stdfs = std::filesystem;

namespace {

// Virtual nanoseconds the deterministic driver advances per operation. Any
// fixed schedule works — it only has to be the same on every replay.
constexpr int64_t kVirtualNanosPerAdd = 1000;
constexpr int64_t kVirtualNanosPerQuery = 200;

// Deterministic analog of a d-second deadline: a work cap assuming ~1M
// distance evaluations per second (see QueryMix::budget_classes).
uint64_t WorkCapForBudgetClass(double d) {
  const long long cap = std::llround(d * 1e6);
  return static_cast<uint64_t>(std::max(16LL, cap));
}

class Driver {
 public:
  Driver(const ScenarioSpec& spec, const RunOptions& opts)
      : spec_(spec),
        opts_(opts),
        query_rng_(DeriveSeed(spec.seed, SeedStream::kQueryPick)),
        sched_rng_(DeriveSeed(spec.seed, SeedStream::kSchedule)),
        faultgen_(MakeFaultParams(spec.seed)),
        faultfs_(persist::FileSystem::Posix()) {}

  Result<ScenarioOutcome> Run();

 private:
  static persist::FaultScheduleParams MakeFaultParams(uint64_t seed) {
    persist::FaultScheduleParams p;
    p.seed = DeriveSeed(seed, SeedStream::kFaults);
    // Crash plans zombify the file system mid-checkpoint; the driver models
    // crashes explicitly (PhaseSpec::crash_and_recover), so checkpoint-fault
    // schedules stick to fail-and-continue faults.
    p.allow_crash = false;
    return p;
  }

  void RunPhaseDeterministic(uint32_t pi, const PhaseSpec& p);
  void RunPhaseConcurrent(uint32_t pi, const PhaseSpec& p);

  Status DoAdd();
  // One checkpoint; returns the size it acknowledged as durable, or 0 on
  // fault. Only called from one thread at a time (driver or checkpointer).
  void DoCheckpoint(uint32_t pi, bool inject, EventLog* log);
  void DoCrashRecover(uint32_t pi);

  void DeterministicQuery(uint32_t pi, const PhaseSpec& p);
  void ReaderLoop(const PhaseSpec& p, uint64_t thread_seed,
                  const std::atomic<bool>* stop, QueryTally* agg);
  void OverloadBurst(uint32_t pi, const PhaseSpec& p);

  // Draws one query's parameters from `rng`; returns false when the index is
  // still empty (nothing to ask).
  struct QueryDraw {
    const float* vector = nullptr;
    TimeWindow window;
    size_t k = 10;
    double budget_class = 0.0;
    uint64_t ctx_seed = 0;
  };
  bool DrawQuery(const PhaseSpec& p, size_t committed, Rng* rng, QueryDraw* out);

  // A phase's size thresholds: its scheduled checkpoints, evenly spaced,
  // and its crash point (0 = none), which takes one sched_rng_ draw.
  struct PhasePlan {
    size_t end_size = 0;
    std::vector<size_t> ckpt_at;
    size_t crash_at = 0;
  };
  PhasePlan PlanPhase(const PhaseSpec& p);

  void CheckEndOfRun(const CounterDeltas& counters);
  void AddViolation(InvariantId id, std::string detail) {
    outcome_.violations.push_back(Violation{id, std::move(detail)});
    outcome_.log.Append(EventKind::kInvariant, current_phase_,
                        static_cast<uint64_t>(id), 0);
  }
  void PassInvariant(InvariantId id) {
    outcome_.log.Append(EventKind::kInvariant, current_phase_,
                        static_cast<uint64_t>(id), 1);
  }

  const ScenarioSpec& spec_;
  const RunOptions opts_;
  ScenarioOutcome outcome_;

  RunFixture fixture_;
  std::unique_ptr<MbiIndex> index_;

  Rng query_rng_;
  Rng sched_rng_;
  persist::FaultScheduleGenerator faultgen_;
  persist::FaultInjectingFileSystem faultfs_;

  VirtualClock vclock_;

  // Highest size a committed (and not zombie-crashed) checkpoint captured.
  // Written by the checkpointer thread in concurrent mode, read by the
  // driver at crash points (after the pool joins) and at end of run.
  std::atomic<size_t> last_acked_{0};

  // Driver-side tallies (deterministic mode and post-join merges only).
  QueryTally tally_;
  uint64_t query_ordinal_ = 0;
  size_t high_water_peak_ = 0;
  uint32_t current_phase_ = 0;
};

Status Driver::DoAdd() {
  const size_t row = index_->size();
  const SyntheticData& data = fixture_.data();
  Status st = index_->Add(data.vector(row), data.timestamps[row]);
  if (!st.ok()) return st;
  ++outcome_.stats.add_ops;
  return Status::Ok();
}

bool Driver::DrawQuery(const PhaseSpec& p, size_t committed, Rng* rng,
                       QueryDraw* out) {
  if (committed == 0) return false;
  out->vector = fixture_.DrawQueryVector(rng);
  const double frac =
      p.mix.window_fractions[rng->NextBounded(p.mix.window_fractions.size())];
  out->k = p.mix.ks[rng->NextBounded(p.mix.ks.size())];
  out->budget_class =
      p.mix.budget_classes[rng->NextBounded(p.mix.budget_classes.size())];
  out->ctx_seed = rng->Next();
  out->window = PlaceWindow(frac, committed, rng);
  return true;
}

void Driver::DeterministicQuery(uint32_t pi, const PhaseSpec& p) {
  QueryDraw q;
  if (!DrawQuery(p, index_->size(), &query_rng_, &q)) return;

  SearchParams sp;
  sp.k = q.k;
  QueryBudget budget;
  if (q.budget_class > 0.0) {
    // Budgets become work caps, the deterministic analog of deadlines — plus
    // a seed-derived slice of already-expired virtual-clock deadlines, so
    // the deadline-degradation path runs under replay too.
    if (query_rng_.NextDouble() < 0.05) {
      budget.deadline = Deadline::After(0.0);
    } else {
      budget.max_distance_evals = WorkCapForBudgetClass(q.budget_class);
    }
    sp.budget = &budget;
  }

  QueryContext ctx(q.ctx_seed);
  const size_t view_size = index_->size();
  const SearchResult result =
      index_->Search(q.vector, q.window, sp, &ctx, {.stats = &tally_.work});
  ++tally_.queries;
  tally_.CountResult(result);

  // I4: every result, complete or degraded, must be internally valid.
  const std::string bad = CheckResultValidity(index_->store(), view_size,
                                              q.window, q.vector, q.k, result);
  if (!bad.empty()) {
    AddViolation(InvariantId::kResultValidity,
                 "phase " + p.name + " query " +
                     std::to_string(query_ordinal_) + ": " + bad);
  }

  outcome_.log.Append(EventKind::kQuery, pi, query_ordinal_,
                      HashResult(result), PackQueryMeta(result, q.k));
  ++query_ordinal_;

  // I2 sampling: every Nth unbounded query is replayed against the oracle.
  if (q.budget_class <= 0.0 && spec_.bounds.oracle_sample_every != 0 &&
      query_ordinal_ % spec_.bounds.oracle_sample_every == 0) {
    const SearchResult exact = ExactOracleTopK(index_->store(), view_size,
                                               q.vector, q.k, q.window);
    tally_.recall.Add(RecallAtK(result, exact, q.k));
  }
  vclock_.AdvanceNanos(kVirtualNanosPerQuery);
}

void Driver::DoCheckpoint(uint32_t pi, bool inject, EventLog* log) {
  const size_t size_at = index_->size();
  log->Append(EventKind::kCheckpointBegin, pi, size_at);
  persist::FileSystem* fs = nullptr;
  if (inject) {
    faultfs_.SetPlan(faultgen_.Next());
    fs = &faultfs_;
  }
  Status st = index_->Checkpoint(fixture_.work_dir(), fs);
  const bool zombied = inject && faultfs_.crashed();
  if (inject) faultfs_.SetPlan(persist::FaultPlan{});
  if (st.ok() && !zombied) {
    // size_at is a lower bound on what the checkpoint captured (it pins its
    // own view at or after our read), so it is safe to acknowledge.
    size_t prev = last_acked_.load(std::memory_order_relaxed);
    while (prev < size_at && !last_acked_.compare_exchange_weak(
                                 prev, size_at, std::memory_order_relaxed)) {
    }
    ++outcome_.stats.checkpoints_committed;
    log->Append(EventKind::kCheckpointCommit, pi, size_at);
  } else {
    ++outcome_.stats.checkpoint_faults;
    log->Append(EventKind::kCheckpointFault, pi, size_at,
                static_cast<uint64_t>(st.code()));
  }
}

void Driver::DoCrashRecover(uint32_t pi) {
  const size_t live = index_->size();
  const size_t acked = last_acked_.load(std::memory_order_relaxed);
  high_water_peak_ = std::max(high_water_peak_, index_->inflight_high_water());
  outcome_.log.Append(EventKind::kCrash, pi, live, acked);
  ++outcome_.stats.crashes;
  index_.reset();  // the "process dies"

  // Reboot: recover from whatever is durably on disk, through the real FS.
  Result<std::unique_ptr<MbiIndex>> rec =
      MbiIndex::Recover(fixture_.work_dir());
  if (!rec.ok()) {
    if (acked > 0) {
      AddViolation(InvariantId::kNoLostAckedWrites,
                   "recovery failed with " + std::to_string(acked) +
                       " acked vectors: " + rec.status().ToString());
    }
    // Nothing acked was durable; restart empty and re-ingest.
    index_ = std::make_unique<MbiIndex>(spec_.dim, spec_.metric, spec_.index);
    last_acked_.store(0, std::memory_order_relaxed);
    outcome_.log.Append(EventKind::kRecover, pi, 0);
    ++outcome_.stats.recoveries;
    return;
  }
  index_ = std::move(rec).value();
  const size_t recovered = index_->size();
  bool lost = recovered < acked;
  if (lost) {
    AddViolation(InvariantId::kNoLostAckedWrites,
                 "recovered " + std::to_string(recovered) + " < acked " +
                     std::to_string(acked));
  }
  // Bit-exactness: everything recovered must match what was ingested.
  const size_t bad_row =
      FirstDifferingRow(index_->store(), recovered, fixture_.data());
  if (bad_row < recovered) {
    AddViolation(InvariantId::kNoLostAckedWrites,
                 "recovered vector " + std::to_string(bad_row) +
                     " differs from the ingested one");
    lost = true;
  }
  if (!lost) PassInvariant(InvariantId::kNoLostAckedWrites);
  outcome_.log.Append(EventKind::kRecover, pi, recovered);
  ++outcome_.stats.recoveries;
}

Driver::PhasePlan Driver::PlanPhase(const PhaseSpec& p) {
  const size_t start_size = index_->size();
  PhasePlan plan;
  plan.end_size = start_size + p.adds;
  for (size_t j = 1; j <= p.checkpoints; ++j) {
    size_t off = p.adds * j / (p.checkpoints + 1);
    plan.ckpt_at.push_back(start_size + std::max<size_t>(1, off));
  }
  // Crash strictly after the first scheduled checkpoint so there is
  // something durable to recover (Validate guarantees checkpoints >= 1).
  if (p.crash_and_recover && p.adds > 0) {
    size_t lo =
        plan.ckpt_at.empty() ? start_size + 1 : plan.ckpt_at.front() + 1;
    // A checkpoint can land on the last add.
    lo = std::min(lo, plan.end_size);
    plan.crash_at = lo + sched_rng_.NextBounded(plan.end_size - lo + 1);
  }
  return plan;
}

void Driver::RunPhaseDeterministic(uint32_t pi, const PhaseSpec& p) {
  const auto [end_size, ckpt_at, crash_at] = PlanPhase(p);
  size_t next_ckpt = 0;
  bool crashed = false;
  double credit = 0.0;
  while (index_->size() < end_size) {
    Status st = DoAdd();
    if (!st.ok()) {
      AddViolation(InvariantId::kNoLostAckedWrites,
                   "Add failed mid-phase: " + st.ToString());
      return;
    }
    const size_t row = index_->size() - 1;
    outcome_.log.Append(EventKind::kAddAck, pi, row);
    vclock_.AdvanceNanos(kVirtualNanosPerAdd);

    // Fire each threshold once, on first crossing; a crash may drop the size
    // back below an already-fired threshold, which must not re-fire it.
    while (next_ckpt < ckpt_at.size() && index_->size() >= ckpt_at[next_ckpt]) {
      DoCheckpoint(pi, p.inject_checkpoint_faults, &outcome_.log);
      ++next_ckpt;
    }
    if (!crashed && crash_at != 0 && index_->size() >= crash_at) {
      crashed = true;
      DoCrashRecover(pi);
      credit = 0.0;
      continue;  // size may have regressed; re-check the loop condition
    }

    credit += p.queries_per_add;
    while (credit >= 1.0) {
      credit -= 1.0;
      DeterministicQuery(pi, p);
    }
  }
}

void Driver::ReaderLoop(const PhaseSpec& p, uint64_t thread_seed,
                        const std::atomic<bool>* stop, QueryTally* agg) {
  Rng rng(thread_seed);
  QueryContext ctx(rng.Next());
  size_t ordinal = 0;
  while (!stop->load(std::memory_order_acquire)) {
    QueryDraw q;
    if (!DrawQuery(p, index_->size(), &rng, &q)) {
      std::this_thread::yield();
      continue;
    }
    SearchParams sp;
    sp.k = q.k;
    QueryBudget budget;
    if (q.budget_class > 0.0) {
      budget = QueryBudget::WithDeadline(q.budget_class);
      sp.budget = &budget;
    }
    WallTimer timer;
    ++agg->queries;
    Result<SearchResult> res = index_->SearchAdmitted(
        q.vector, q.window, sp, &ctx, {.stats = &agg->work});
    if (!res.ok()) {
      if (res.status().code() == StatusCode::kResourceExhausted) {
        ++agg->shed;
      } else {
        agg->AddViolation(
            InvariantId::kResultValidity,
            "unexpected SearchAdmitted error: " + res.status().ToString());
      }
      continue;
    }
    const double elapsed = timer.ElapsedSeconds();
    const SearchResult& result = res.value();
    agg->CountResult(result);
    if (q.budget_class > 0.0) {
      agg->overshoot.Add(elapsed / q.budget_class);
    }
    // I4 against the store size read *after* the query returned: the view
    // the query pinned can only be a prefix of it.
    const size_t bound = index_->size();
    const std::string bad = CheckResultValidity(
        index_->store(), bound, q.window, q.vector, q.k, result);
    if (!bad.empty()) {
      agg->AddViolation(InvariantId::kResultValidity,
                        "phase " + p.name + " reader query: " + bad);
    }

    // I2 sampling, against the same pinned view the query would have seen.
    ++ordinal;
    if (q.budget_class <= 0.0 && spec_.bounds.oracle_sample_every != 0 &&
        ordinal % spec_.bounds.oracle_sample_every == 0) {
      const ReadView view = index_->AcquireReadView();
      const SearchResult pinned = index_->Search(
          q.vector, q.window, sp, &ctx, {.view = &view, .stats = &agg->work});
      ++agg->view_calls;
      const SearchResult exact = ExactOracleTopK(
          index_->store(), view.num_vectors, q.vector, q.k, q.window);
      agg->recall.Add(RecallAtK(pinned, exact, q.k));
    }
  }
}

void Driver::OverloadBurst(uint32_t pi, const PhaseSpec& p) {
  const size_t limit = spec_.index.max_inflight_queries;
  const size_t burst_threads = static_cast<size_t>(
      std::ceil(p.overload_factor * static_cast<double>(limit)));
  if (burst_threads == 0 || index_->size() == 0) return;
  constexpr size_t kQueriesPerBurstThread = 50;

  std::vector<QueryTally> tallies(burst_threads);
  ThreadPool burst(burst_threads);
  for (size_t t = 0; t < burst_threads; ++t) {
    const uint64_t seed =
        DeriveSeed(spec_.seed, SeedStream::kThreads, 7919 + t);
    QueryTally* tally = &tallies[t];
    burst.Submit([this, &p, seed, tally] {
      Rng rng(seed);
      QueryContext ctx(rng.Next());
      for (size_t i = 0; i < kQueriesPerBurstThread; ++i) {
        QueryDraw q;
        if (!DrawQuery(p, index_->size(), &rng, &q)) break;
        SearchParams sp;
        sp.k = q.k;
        // Burst queries carry a deadline so the injected distance delay
        // applies, holding them in flight long enough to collide.
        QueryBudget budget = QueryBudget::WithDeadline(
            q.budget_class > 0.0 ? q.budget_class : 0.05);
        sp.budget = &budget;
        ++tally->queries;
        Result<SearchResult> res = index_->SearchAdmitted(
            q.vector, q.window, sp, &ctx, {.stats = &tally->work});
        if (res.ok()) {
          tally->CountResult(res.value());
        } else {
          ++tally->shed;
        }
      }
    });
  }
  burst.Wait();
  QueryTally bursts;
  for (const QueryTally& t : tallies) bursts.MergeFrom(t);
  tally_.MergeFrom(bursts);
  ++outcome_.stats.overload_bursts;
  outcome_.log.Append(EventKind::kOverloadBurst, pi, bursts.queries,
                      bursts.shed);
}

void Driver::RunPhaseConcurrent(uint32_t pi, const PhaseSpec& p) {
  const size_t burst_at =
      p.overload_factor > 0.0 ? index_->size() + p.adds / 2 : 0;
  const PhasePlan plan = PlanPhase(p);
  const size_t end_size = plan.end_size;
  const size_t crash_at = plan.crash_at;

  size_t next_ckpt = 0;
  bool crashed = false;
  bool burst_done = false;
  bool aborted = false;

  // The phase runs as one or two segments (split at the crash point). Each
  // segment spins up readers + a checkpointer, the driver thread writes, and
  // everything joins at the segment boundary — so the crash destroys the
  // index only once no other thread can touch it.
  while (index_->size() < end_size && !aborted) {
    const size_t segment_end = (!crashed && crash_at != 0)
                                   ? std::min(end_size, crash_at)
                                   : end_size;
    std::atomic<bool> stop{false};
    std::vector<QueryTally> aggs(p.query_threads);
    EventLog ckpt_log;

    ThreadPool pool(p.query_threads + 1);
    for (size_t t = 0; t < p.query_threads; ++t) {
      const uint64_t seed =
          DeriveSeed(spec_.seed, SeedStream::kThreads, pi * 101 + t);
      QueryTally* agg = &aggs[t];
      pool.Submit([this, &p, seed, &stop, agg] {
        ReaderLoop(p, seed, &stop, agg);
      });
    }
    // Checkpointer: fires each scheduled checkpoint once its size threshold
    // is reached. Owns next_ckpt and ckpt_log for the segment; the driver
    // thread touches them only after Wait().
    pool.Submit([this, pi, &p, &stop, &plan, &next_ckpt, &ckpt_log] {
      while (!stop.load(std::memory_order_acquire)) {
        if (next_ckpt < plan.ckpt_at.size() &&
            index_->size() >= plan.ckpt_at[next_ckpt]) {
          DoCheckpoint(pi, p.inject_checkpoint_faults, &ckpt_log);
          ++next_ckpt;
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });

    while (index_->size() < segment_end) {
      Status st = DoAdd();
      if (!st.ok()) {
        AddViolation(InvariantId::kNoLostAckedWrites,
                     "Add failed mid-phase: " + st.ToString());
        aborted = true;
        break;
      }
      if (!burst_done && burst_at != 0 && index_->size() >= burst_at) {
        burst_done = true;
        OverloadBurst(pi, p);
      }
    }
    stop.store(true, std::memory_order_release);
    pool.Wait();

    // Merge what the workers saw.
    for (QueryTally& a : aggs) {
      tally_.MergeFrom(a);
      for (Violation& v : a.violations) {
        outcome_.violations.push_back(std::move(v));
      }
    }
    for (const Event& e : ckpt_log.events()) outcome_.log.Append(e);

    if (!aborted && !crashed && crash_at != 0 && index_->size() >= crash_at) {
      crashed = true;
      DoCrashRecover(pi);
    }
  }
}

void Driver::CheckEndOfRun(const CounterDeltas& counters) {
  // I2: recall floor over the sampled unbounded queries.
  const MeanSink& recall = tally_.recall;
  if (recall.count() > 0) {
    if (recall.Mean() < spec_.bounds.recall_floor) {
      AddViolation(InvariantId::kRecallFloor,
                   "mean recall " + std::to_string(recall.Mean()) + " < " +
                       std::to_string(spec_.bounds.recall_floor) + " over " +
                       std::to_string(recall.count()) + " samples");
    } else {
      PassInvariant(InvariantId::kRecallFloor);
    }
  }

  // I3: p99 deadline overshoot (only concurrent readers take samples).
  if (const std::optional<std::string> bad =
          CheckOvershoot(tally_.overshoot, opts_.injected_distance_delay_nanos,
                         spec_.bounds.p99_overshoot_factor)) {
    if (bad->empty()) {
      PassInvariant(InvariantId::kDeadlineOvershoot);
    } else {
      AddViolation(InvariantId::kDeadlineOvershoot, *bad);
    }
  }

  // I5: the process-wide obs counters must have moved exactly as many times
  // as the driver observed the corresponding outcome (no invalid query is
  // ever issued), and the block-work counters exactly as far as the summed
  // records of every query say.
  const MbiQueryStats& work = tally_.work;
  const std::vector<std::string> mismatches = counters.Mismatches(
      {tally_.queries - tally_.shed + tally_.view_calls, tally_.degraded,
       tally_.shed, 0, work.graph_blocks, work.exact_blocks,
       work.search.distance_evaluations - work.exact_distance_evals,
       work.exact_distance_evals});
  for (const std::string& m : mismatches) {
    AddViolation(InvariantId::kMetricsConsistency, m);
  }
  if (mismatches.empty()) PassInvariant(InvariantId::kMetricsConsistency);

  // I6: admission never exceeded the configured limit (across every index
  // incarnation the run went through).
  high_water_peak_ =
      std::max(high_water_peak_, index_->inflight_high_water());
  outcome_.stats.inflight_high_water = high_water_peak_;
  if (spec_.index.max_inflight_queries > 0) {
    if (high_water_peak_ > spec_.index.max_inflight_queries) {
      AddViolation(InvariantId::kAdmissionBound,
                   "inflight high water " + std::to_string(high_water_peak_) +
                       " > limit " +
                       std::to_string(spec_.index.max_inflight_queries));
    } else {
      PassInvariant(InvariantId::kAdmissionBound);
    }
  }
}

Result<ScenarioOutcome> Driver::Run() {
  MBI_RETURN_IF_ERROR(spec_.Validate());
  MBI_RETURN_IF_ERROR(fixture_.Setup(spec_.name, spec_.seed, spec_.dim,
                                     spec_.TotalAdds(), opts_));
  index_ = std::make_unique<MbiIndex>(spec_.dim, spec_.metric, spec_.index);

  outcome_.name = spec_.name;
  outcome_.seed = spec_.seed;
  outcome_.mode = opts_.mode;

  const CounterDeltas counters(
      {"mbi_queries_total", "mbi_query_degraded_total", "mbi_query_shed_total",
       "mbi_query_invalid_total", "mbi_search_graph_searches_total",
       "mbi_search_exact_scans_total", "mbi_search_distance_evals_total",
       "mbi_search_exact_distance_evals_total"});

  // Physical wall time for the stats block only — never logged, so it does
  // not affect replay determinism.
  using PhysicalClock = std::chrono::steady_clock;
  // mbi-lint: allow(wall-clock) — stats-only reading, outside the event log
  const PhysicalClock::time_point wall_start = PhysicalClock::now();

  if (opts_.mode == RunMode::kDeterministic) {
    vclock_.SetNanos(1);  // t=0 would make a fresh deadline pre-expired
    ScopedClockOverride clock_guard(&vclock_);
    for (uint32_t pi = 0; pi < spec_.phases.size(); ++pi) {
      current_phase_ = pi;
      outcome_.log.Append(EventKind::kPhaseStart, pi);
      RunPhaseDeterministic(pi, spec_.phases[pi]);
      outcome_.log.Append(EventKind::kPhaseEnd, pi);
    }
  } else {
    budget_testing::ScopedDistanceDelay delay_guard(
        opts_.injected_distance_delay_nanos);
    for (uint32_t pi = 0; pi < spec_.phases.size(); ++pi) {
      current_phase_ = pi;
      outcome_.log.Append(EventKind::kPhaseStart, pi);
      RunPhaseConcurrent(pi, spec_.phases[pi]);
      outcome_.log.Append(EventKind::kPhaseEnd, pi);
    }
  }

  index_->FinishPendingBuilds();
  tally_.FoldInto(&outcome_.stats);
  CheckEndOfRun(counters);

  outcome_.stats.final_size = index_->size();
  outcome_.stats.final_blocks = index_->num_blocks();
  const PhysicalClock::time_point wall_end =
      PhysicalClock::now();  // mbi-lint: allow(wall-clock) — stats-only
  outcome_.stats.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return std::move(outcome_);
}

}  // namespace

std::string ScenarioOutcome::ViolationSummary() const {
  if (violations.empty()) return "all invariants held";
  std::string out;
  for (const Violation& v : violations) {
    out += std::string("[") + InvariantName(v.id) + "] " + v.detail + "\n";
  }
  return out;
}

Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    const RunOptions& options) {
  Driver driver(spec, options);
  return driver.Run();
}

// ---------------------------------------------------------------------------
// Shared harness parts

// Query vectors per run; queries draw an index into this pool, so replay
// cost stays independent of query volume.
constexpr size_t kQueryPoolSize = 64;

RunFixture::~RunFixture() {
  if (own_work_dir_) {
    std::error_code ec;
    stdfs::remove_all(work_dir_, ec);  // best-effort cleanup
  }
}

Status RunFixture::Setup(const std::string& name, uint64_t seed, size_t dim,
                         size_t rows, const RunOptions& options) {
  if (options.work_dir.empty()) {
    const std::string leaf = "mbi_scenario_" + name + "_" +
                             std::to_string(seed) + "_" +
                             std::to_string(static_cast<long>(::getpid()));
    std::error_code ec;
    const stdfs::path dir = stdfs::temp_directory_path(ec) / leaf;
    if (ec) return Status::IoError("no temp directory: " + ec.message());
    stdfs::remove_all(dir, ec);
    work_dir_ = dir.string();
    own_work_dir_ = true;
  } else {
    work_dir_ = options.work_dir;
  }
  std::error_code ec;
  stdfs::create_directories(work_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create " + work_dir_ + ": " +
                           ec.message());
  }

  SyntheticParams gen;
  gen.dim = dim;
  gen.seed = DeriveSeed(seed, SeedStream::kData);
  data_ = GenerateSynthetic(gen, rows);
  query_pool_ = GenerateQueries(gen, kQueryPoolSize);
  return Status::Ok();
}

const float* RunFixture::DrawQueryVector(Rng* rng) const {
  return query_pool_.data() + rng->NextBounded(kQueryPoolSize) * data_.dim;
}

TimeWindow PlaceWindow(double frac, size_t committed, Rng* rng) {
  const auto n = static_cast<Timestamp>(committed);
  const Timestamp len = std::max<Timestamp>(
      1, std::llround(frac * static_cast<double>(n)));
  const auto start = static_cast<Timestamp>(
      rng->NextBounded(static_cast<uint64_t>(n - std::min(len, n) + 1)));
  return TimeWindow{start, start + len};
}

uint64_t PackQueryMeta(const SearchResult& result, size_t k,
                       size_t shards_ok, size_t shards_selected,
                       size_t hedges) {
  return static_cast<uint64_t>(result.completion) |
         (static_cast<uint64_t>(k & 0xFFFF) << 8) |
         (static_cast<uint64_t>(result.size() & 0xFFFF) << 24) |
         (static_cast<uint64_t>(shards_ok & 0xFF) << 40) |
         (static_cast<uint64_t>(shards_selected & 0xFF) << 48) |
         (static_cast<uint64_t>(hedges & 0xFF) << 56);
}

void QueryTally::AddViolation(InvariantId id, std::string detail) {
  if (violations.size() < 8) violations.push_back({id, std::move(detail)});
}

void QueryTally::MergeFrom(const QueryTally& other) {
  queries += other.queries;
  complete += other.complete;
  degraded += other.degraded;
  shed += other.shed;
  view_calls += other.view_calls;
  work += other.work;
  hedges += other.hedges;
  shard_retries += other.shard_retries;
  partial_results += other.partial_results;
  recall.MergeFrom(other.recall);
  overshoot.MergeFrom(other.overshoot);
}

void QueryTally::FoldInto(ScenarioStats* stats) const {
  stats->queries = queries;
  stats->complete = complete;
  stats->degraded = degraded;
  stats->shed = shed;
  stats->hedges = hedges;
  stats->shard_retries = shard_retries;
  stats->partial_results = partial_results;
  stats->recall_mean = recall.Mean();
  stats->recall_samples = recall.count();
  stats->p99_overshoot = overshoot.Quantile(0.99);
  stats->overshoot_samples = overshoot.count();
}

}  // namespace mbi::scenario
