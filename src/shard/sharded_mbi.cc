#include "shard/sharded_mbi.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/topk.h"
#include "core/vector_store.h"
#include "obs/metrics.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mbi::shard {
namespace {

// Process-wide shard-layer metrics, registered once (same pattern as the
// Build/QueryMetrics statics in mbi_index.cc).
struct ShardMetrics {
  obs::Counter* queries;
  obs::Counter* probes;
  obs::Counter* hedges;
  obs::Counter* retries;
  obs::Counter* quarantines;
  obs::Counter* partial_results;
  obs::Counter* coverage_failures;
  obs::Histogram* probe_seconds;

  static const ShardMetrics& Get() {
    static const ShardMetrics* m = [] {
      auto& reg = obs::MetricRegistry::Default();
      auto* sm = new ShardMetrics{  // mbi-lint: allow(naked-new) — process-lifetime metrics singleton, intentionally leaked
          reg.GetCounter("mbi_shard_queries_total",
                         "sharded scatter-gather queries"),
          reg.GetCounter("mbi_shard_probes_total",
                         "per-shard probes issued (all attempts)"),
          reg.GetCounter("mbi_shard_hedges_total",
                         "backup probes launched for straggler shards"),
          reg.GetCounter("mbi_shard_retries_total",
                         "shed retries consumed across all shards"),
          reg.GetCounter("mbi_shard_quarantines_total",
                         "shards taken out of rotation on kDataLoss/"
                         "kUnavailable"),
          reg.GetCounter("mbi_shard_partial_results_total",
                         "queries answered by a strict subset of their "
                         "selected shards"),
          reg.GetCounter("mbi_shard_coverage_failures_total",
                         "queries failed for falling below "
                         "min_result_coverage"),
          reg.GetHistogram("mbi_shard_probe_seconds",
                           obs::Histogram::ExponentialBounds(1e-5, 2.0, 22),
                           "winning-chain latency per probed shard"),
      };
      return sm;
    }();
    return *m;
  }
};

bool IsQuarantiningCode(StatusCode code) {
  return code == StatusCode::kDataLoss || code == StatusCode::kUnavailable;
}

}  // namespace

Status ShardedMbiParams::Validate() const {
  if (shard_span <= 0) {
    return Status::InvalidArgument("shard_span must be > 0");
  }
  if (hedge_delay_seconds < 0.0) {
    return Status::InvalidArgument("hedge_delay_seconds must be >= 0");
  }
  if (min_result_coverage < 0.0 || min_result_coverage > 1.0) {
    return Status::InvalidArgument("min_result_coverage must be in [0, 1]");
  }
  if (backoff.initial_seconds < 0.0 || backoff.multiplier < 1.0 ||
      backoff.max_seconds < 0.0 || backoff.jitter < 0.0 ||
      backoff.jitter > 1.0) {
    return Status::InvalidArgument(
        "backoff: initial/max >= 0, multiplier >= 1, jitter in [0, 1]");
  }
  return shard.Validate();
}

std::string ShardQueryTrace::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "sharded query: %zu selected, %zu pruned, %zu ok, "
                "%zu hedge(s), %zu retr%s\n",
                shards_selected, shards_pruned, shards_ok, hedges_fired,
                retries_total, retries_total == 1 ? "y" : "ies");
  out += line;
  for (const Probe& p : probes) {
    if (p.quarantined) {
      std::snprintf(line, sizeof(line),
                    "  shard %zu: QUARANTINED (skipped): %s\n", p.shard_index,
                    p.error.c_str());
    } else if (p.ok) {
      std::snprintf(line, sizeof(line),
                    "  shard %zu: ok in %.2f ms, %u attempt(s), %u retr%s%s\n",
                    p.shard_index, p.latency_seconds * 1e3, p.attempts,
                    p.retries, p.retries == 1 ? "y" : "ies",
                    p.hedged ? ", hedged" : "");
    } else {
      std::snprintf(line, sizeof(line),
                    "  shard %zu: FAILED after %u attempt(s), %u retr%s%s: "
                    "%s\n",
                    p.shard_index, p.attempts, p.retries,
                    p.retries == 1 ? "y" : "ies", p.hedged ? ", hedged" : "",
                    p.error.c_str());
    }
    out += line;
  }
  return out;
}

SearchResult MergeShardResults(size_t k,
                               const std::vector<const SearchResult*>& parts) {
  SearchResult merged;
  if (k == 0) return merged;
  TopKHeap heap(k);
  // Hedged probes of the same shard can both complete and both report the
  // same rows; first occurrence wins. Shards themselves own disjoint global
  // id ranges, so cross-shard collisions are impossible — the set only pays
  // for the duplicate-probe case.
  std::unordered_set<VectorId> seen;
  for (const SearchResult* part : parts) {
    for (const Neighbor& nb : *part) {
      if (seen.insert(nb.id).second) heap.Push(nb.distance, nb.id);
    }
  }
  merged = heap.ExtractSorted();
  return merged;
}

// ---------------------------------------------------------------------------
// Construction / registry

ShardedMbi::ShardedMbi(size_t dim, Metric metric,
                       const ShardedMbiParams& params)
    : dim_(dim), metric_(metric), params_(params) {
  MBI_CHECK_OK(params_.Validate());
  if (params_.num_search_threads >= 2) {
    pool_ = std::make_unique<ThreadPool>(params_.num_search_threads);
  }
}

ShardedMbi::~ShardedMbi() = default;

size_t ShardedMbi::num_shards() const {
  MutexLock lock(mu_);
  return entries_.size();
}

size_t ShardedMbi::size() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const ShardEntry& e : entries_) total += e.index->size();
  return total;
}

Result<int64_t> ShardedMbi::shard_base(size_t i) const {
  MutexLock lock(mu_);
  if (i >= entries_.size()) {
    return Status::OutOfRange("no shard " + std::to_string(i));
  }
  return entries_[i].base;
}

Result<std::shared_ptr<const MbiIndex>> ShardedMbi::shard(size_t i) const {
  MutexLock lock(mu_);
  if (i >= entries_.size()) {
    return Status::OutOfRange("no shard " + std::to_string(i));
  }
  return std::shared_ptr<const MbiIndex>(entries_[i].index);
}

bool ShardedMbi::shard_healthy(size_t i) const {
  MutexLock lock(mu_);
  return i < entries_.size() && entries_[i].healthy;
}

Status ShardedMbi::shard_status(size_t i) const {
  MutexLock lock(mu_);
  if (i >= entries_.size()) {
    return Status::OutOfRange("no shard " + std::to_string(i));
  }
  return entries_[i].fault;
}

void ShardedMbi::SetFaultInjectorForTesting(
    std::shared_ptr<ShardFaultInjector> injector) {
  MutexLock lock(mu_);
  injector_ = std::move(injector);
}

Status ShardedMbi::Add(const float* vector, Timestamp t) {
  if (vector == nullptr || !IsFiniteVector(vector, dim_)) {
    return Status::InvalidArgument(
        "vector is null or has non-finite components");
  }
  std::shared_ptr<MbiIndex> target;
  {
    MutexLock lock(mu_);
    if (t < 0) {
      return Status::InvalidArgument(
          "sharded timestamps must be >= 0 (shard = t / shard_span)");
    }
    if (t < last_t_) {
      return Status::InvalidArgument(
          "timestamps must be appended in non-decreasing order");
    }
    const size_t si = static_cast<size_t>(t / params_.shard_span);
    if (params_.max_shards != 0 && si >= params_.max_shards) {
      return Status::OutOfRange(
          "timestamp " + std::to_string(t) + " maps to shard " +
          std::to_string(si) + " beyond max_shards=" +
          std::to_string(params_.max_shards));
    }
    while (entries_.size() <= si) {
      ShardEntry e;
      // Shard bases are assigned at creation from the live total, which is
      // why a crashed shard must be fully repaired before ingest rolls into
      // a new span (see AppendToShard).
      int64_t base = 0;
      if (!entries_.empty()) {
        base = entries_.back().base +
               static_cast<int64_t>(entries_.back().index->size());
      }
      e.base = base;
      e.index = std::make_shared<MbiIndex>(dim_, metric_, params_.shard);
      entries_.push_back(std::move(e));
    }
    ShardEntry& e = entries_[si];
    if (!e.healthy) {
      return Status::Unavailable("shard " + std::to_string(si) +
                                 " is quarantined (" + e.fault.ToString() +
                                 "); RecoverShard before appending");
    }
    target = e.index;
  }
  MBI_RETURN_IF_ERROR(target->Add(vector, t));
  MutexLock lock(mu_);
  last_t_ = std::max(last_t_, t);
  return Status::Ok();
}

Status ShardedMbi::AddBatch(const float* vectors, const Timestamp* timestamps,
                            size_t count, size_t* rows_applied) {
  for (size_t i = 0; i < count; ++i) {
    Status s = Add(vectors + i * dim_, timestamps[i]);
    if (!s.ok()) {
      if (rows_applied != nullptr) *rows_applied = i;
      return s;
    }
  }
  if (rows_applied != nullptr) *rows_applied = count;
  return Status::Ok();
}

Status ShardedMbi::AppendToShard(size_t i, const float* vector, Timestamp t) {
  if (vector == nullptr || !IsFiniteVector(vector, dim_)) {
    return Status::InvalidArgument(
        "vector is null or has non-finite components");
  }
  std::shared_ptr<MbiIndex> target;
  {
    MutexLock lock(mu_);
    if (i >= entries_.size()) {
      return Status::OutOfRange("no shard " + std::to_string(i));
    }
    if (!entries_[i].healthy) {
      return Status::Unavailable("shard " + std::to_string(i) +
                                 " is quarantined; RecoverShard first");
    }
    target = entries_[i].index;
  }
  if (!ShardWindow(i).Contains(t)) {
    return Status::InvalidArgument("timestamp " + std::to_string(t) +
                                   " outside shard " + std::to_string(i) +
                                   "'s span");
  }
  return target->Add(vector, t);
}

Status ShardedMbi::QuarantineShard(size_t i, Status why) {
  MutexLock lock(mu_);
  if (i >= entries_.size()) {
    return Status::OutOfRange("no shard " + std::to_string(i));
  }
  if (entries_[i].healthy) {
    entries_[i].healthy = false;
    entries_[i].fault =
        why.ok() ? Status::Unavailable("quarantined by operator") : why;
    ShardMetrics::Get().quarantines->Increment();
  }
  return Status::Ok();
}

void ShardedMbi::QuarantineOnFault(size_t shard_index,
                                   const Status& status) const {
  MutexLock lock(mu_);
  if (shard_index < entries_.size() && entries_[shard_index].healthy) {
    entries_[shard_index].healthy = false;
    entries_[shard_index].fault = status;
    ShardMetrics::Get().quarantines->Increment();
  }
}

Status ShardedMbi::CheckpointShard(size_t i, const std::string& dir,
                                   persist::FileSystem* fs) const {
  std::shared_ptr<MbiIndex> target;
  {
    MutexLock lock(mu_);
    if (i >= entries_.size()) {
      return Status::OutOfRange("no shard " + std::to_string(i));
    }
    target = entries_[i].index;
  }
  Status s = target->Checkpoint(dir, fs);
  if (!s.ok() && IsQuarantiningCode(s.code())) QuarantineOnFault(i, s);
  return s;
}

Status ShardedMbi::RecoverShard(size_t i, const std::string& dir,
                                persist::FileSystem* fs) {
  {
    MutexLock lock(mu_);
    if (i >= entries_.size()) {
      return Status::OutOfRange("no shard " + std::to_string(i));
    }
  }
  Result<std::unique_ptr<MbiIndex>> recovered = MbiIndex::Recover(dir, fs);
  if (!recovered.ok()) {
    // A shard that cannot come back is a fault domain, not a process
    // failure: quarantine it so queries degrade around the hole, and let a
    // later RecoverShard against a healthy directory revive it.
    QuarantineOnFault(i, recovered.status());
    return recovered.status();
  }
  std::shared_ptr<MbiIndex> fresh = std::move(recovered).value();
  if (fresh->store().dim() != dim_) {
    Status s = Status::DataLoss(
        "recovered shard dimension " + std::to_string(fresh->store().dim()) +
        " != index dimension " + std::to_string(dim_));
    QuarantineOnFault(i, s);
    return s;
  }
  MutexLock lock(mu_);
  // In-flight probes keep their pinned shared_ptr to the old instance; the
  // swap is invisible to them.
  entries_[i].index = std::move(fresh);
  entries_[i].healthy = true;
  entries_[i].fault = Status::Ok();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Scatter-gather

// Per-shard state accumulated during one query's fan-out.
struct ShardedMbi::GatherSlot {
  size_t shard_index = 0;
  bool quarantined = false;  // skipped: shard was out of rotation
  bool ok = false;
  bool hedged = false;
  bool deadline_missed = false;
  uint32_t attempts = 0;
  uint32_t retries = 0;
  double latency_seconds = 0.0;
  Status failure;
  std::vector<SearchResult> parts;  // OK chain results, global ids

  // Concurrent-mode bookkeeping (guarded by GatherState::mu).
  uint32_t chains_running = 0;
  bool done = false;
};

// Heap-allocated per-query state shared with pool probes. Stragglers that
// resolve after the query's deadline write into this (harmlessly) instead of
// into the caller's stack frame.
struct ShardedMbi::GatherState {
  Mutex mu;
  CondVar cv;
  std::vector<float> query;
  TimeWindow window;
  SearchParams search;      // child params; budget points at `budget` below
  QueryBudget budget;       // sliced child budget (value-owned for stragglers)
  bool has_budget = false;
  uint64_t query_seed = 0;
  int64_t start_nanos = 0;
  std::vector<ShardRef> refs;
  std::vector<GatherSlot> slots MBI_GUARDED_BY(mu);
  size_t pending MBI_GUARDED_BY(mu) = 0;
};

ShardedMbi::ProbeOutcome ShardedMbi::ProbeOnce(
    const ShardRef& ref, const float* query, const TimeWindow& window,
    const SearchParams& search, uint64_t query_seed, uint32_t attempt,
    bool sleep_injected,
    const std::shared_ptr<ShardFaultInjector>& injector) const {
  const ShardMetrics& metrics = ShardMetrics::Get();
  metrics.probes->Increment();
  WallTimer timer;
  // Observed probe latency = real elapsed plus whatever injected delay was
  // simulated rather than slept (serial mode).
  auto observe = [&](const ProbeOutcome& o) {
    metrics.probe_seconds->Observe(timer.ElapsedSeconds() +
                                   (sleep_injected ? 0.0
                                                   : o.injected_seconds));
  };
  ProbeOutcome out;
  if (injector != nullptr) {
    ShardProbeFault fault = injector->OnProbe(ref.shard_index, attempt);
    out.injected_seconds = fault.delay_seconds;
    if (sleep_injected && fault.delay_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fault.delay_seconds));
    }
    if (!fault.status.ok()) {
      out.status = std::move(fault.status);
      observe(out);
      return out;
    }
  }
  // Each probe gets its own seed stream so a hedge is not a bit-identical
  // rerun of the primary (fresh graph entry points), yet a replay with the
  // same fault schedule reproduces every probe exactly.
  QueryContext probe_ctx(DeriveSeedStream(
      query_seed, "shard/" + std::to_string(ref.shard_index) + "/attempt/" +
                      std::to_string(attempt)));
  Result<SearchResult> r =
      ref.index->SearchAdmitted(query, window, search, &probe_ctx);
  if (!r.ok()) {
    out.status = r.status();
    observe(out);
    return out;
  }
  out.result = std::move(r).value();
  // Local ids -> global ids: the shard's rows sit at [base, base + size) in
  // arrival order, exactly where a single unsharded index would put them.
  for (Neighbor& nb : out.result) nb.id += ref.base;
  observe(out);
  return out;
}

ShardedMbi::ChainOutcome ShardedMbi::RunChain(
    const ShardRef& ref, const float* query, const TimeWindow& window,
    const SearchParams& search, uint64_t query_seed, uint32_t attempt_base,
    bool real_time,
    const std::shared_ptr<ShardFaultInjector>& injector) const {
  const ShardMetrics& metrics = ShardMetrics::Get();
  ChainOutcome out;
  uint32_t attempt = attempt_base;
  while (true) {
    ProbeOutcome probe = ProbeOnce(ref, query, window, search, query_seed,
                                   attempt, real_time, injector);
    ++out.attempts;
    out.simulated_seconds += probe.injected_seconds;
    if (probe.status.ok()) {
      out.ok = true;
      out.result = std::move(probe.result);
      return out;
    }
    out.final_status = std::move(probe.status);
    const bool retryable =
        out.final_status.code() == StatusCode::kResourceExhausted;
    const bool deadline_ok =
        search.budget == nullptr || !search.budget->deadline.Expired();
    if (!retryable || out.retries >= params_.backoff.max_retries ||
        !deadline_ok) {
      return out;
    }
    const double hint = out.final_status.has_retry_after()
                            ? out.final_status.retry_after_seconds()
                            : -1.0;
    const double delay = params_.backoff.DelaySeconds(
        out.retries, hint,
        DeriveSeedStream(query_seed,
                         "backoff/" + std::to_string(ref.shard_index) + "/" +
                             std::to_string(attempt)));
    ++out.retries;
    metrics.retries->Increment();
    if (real_time) {
      double sleep_s = delay;
      if (search.budget != nullptr) {
        sleep_s = std::min(sleep_s,
                           search.budget->deadline.RemainingSeconds());
      }
      if (sleep_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
    }
    out.simulated_seconds += delay;
    ++attempt;
  }
}

void ShardedMbi::GatherSerial(
    const std::vector<ShardRef>& selected, const float* query,
    const TimeWindow& window, const SearchParams& search, uint64_t query_seed,
    const std::shared_ptr<ShardFaultInjector>& injector,
    std::vector<GatherSlot>* slots) const {
  const ShardMetrics& metrics = ShardMetrics::Get();
  slots->resize(selected.size());
  for (size_t s = 0; s < selected.size(); ++s) {
    const ShardRef& ref = selected[s];
    GatherSlot& slot = (*slots)[s];
    slot.shard_index = ref.shard_index;
    if (!ref.healthy) {
      slot.quarantined = true;
      slot.failure = ref.fault;
      continue;
    }
    ChainOutcome primary = RunChain(ref, query, window, search, query_seed,
                                    /*attempt_base=*/0, /*real_time=*/false,
                                    injector);
    slot.attempts += primary.attempts;
    slot.retries += primary.retries;
    if (primary.ok) {
      slot.parts.push_back(std::move(primary.result));
    } else {
      slot.failure = primary.final_status;
      if (IsQuarantiningCode(primary.final_status.code())) {
        QuarantineOnFault(ref.shard_index, primary.final_status);
      }
    }
    double latency = primary.simulated_seconds;
    // Deterministic hedging: in real time the primary would still be
    // unresolved when the hedge timer fires, so any primary chain whose
    // simulated latency crosses the threshold gets its backup probe.
    if (params_.enable_hedging &&
        primary.simulated_seconds >= params_.hedge_delay_seconds) {
      slot.hedged = true;
      metrics.hedges->Increment();
      ChainOutcome hedge = RunChain(ref, query, window, search, query_seed,
                                    kHedgeAttemptBase, /*real_time=*/false,
                                    injector);
      slot.attempts += hedge.attempts;
      slot.retries += hedge.retries;
      if (hedge.ok) {
        const double hedge_latency =
            params_.hedge_delay_seconds + hedge.simulated_seconds;
        latency = primary.ok ? std::min(latency, hedge_latency)
                             : hedge_latency;
        slot.parts.push_back(std::move(hedge.result));
      } else if (!primary.ok &&
                 IsQuarantiningCode(hedge.final_status.code())) {
        QuarantineOnFault(ref.shard_index, hedge.final_status);
      }
    }
    slot.ok = !slot.parts.empty();
    slot.latency_seconds = latency;
  }
}

void ShardedMbi::GatherConcurrent(
    const std::vector<ShardRef>& selected, const float* query,
    const TimeWindow& window, const SearchParams& search, uint64_t query_seed,
    const std::shared_ptr<ShardFaultInjector>& injector,
    std::vector<GatherSlot>* slots) const {
  const ShardMetrics& metrics = ShardMetrics::Get();
  auto state = std::make_shared<GatherState>();
  state->query.assign(query, query + dim_);
  state->window = window;
  state->search = search;
  state->has_budget = search.budget != nullptr;
  if (state->has_budget) {
    // Value-copy the (already sliced) child budget: straggler probes may
    // outlive the caller's stack frame, so they must not dereference the
    // caller-owned budget.
    state->budget = *search.budget;
    state->search.budget = &state->budget;
  }
  state->query_seed = query_seed;
  state->start_nanos = NowNanos();
  state->refs = selected;

  auto run_chain_task = [this, state, injector](size_t s,
                                                uint32_t attempt_base) {
    const ShardRef& ref = state->refs[s];
    ChainOutcome out =
        RunChain(ref, state->query.data(), state->window, state->search,
                 state->query_seed, attempt_base, /*real_time=*/true,
                 injector);
    if (!out.ok && IsQuarantiningCode(out.final_status.code())) {
      QuarantineOnFault(ref.shard_index, out.final_status);
    }
    MutexLock lock(state->mu);
    GatherSlot& slot = state->slots[s];
    slot.attempts += out.attempts;
    slot.retries += out.retries;
    if (out.ok) {
      slot.parts.push_back(std::move(out.result));
    } else {
      slot.failure = out.final_status;
    }
    --slot.chains_running;
    if (!slot.done && (out.ok || slot.chains_running == 0)) {
      slot.done = true;
      slot.ok = !slot.parts.empty();
      slot.latency_seconds =
          static_cast<double>(NowNanos() - state->start_nanos) * 1e-9;
      --state->pending;
    }
    state->cv.NotifyAll();
  };

  {
    MutexLock lock(state->mu);
    state->slots.resize(selected.size());
    for (size_t s = 0; s < selected.size(); ++s) {
      GatherSlot& slot = state->slots[s];
      slot.shard_index = selected[s].shard_index;
      if (!selected[s].healthy) {
        slot.quarantined = true;
        slot.failure = selected[s].fault;
        slot.done = true;
        continue;
      }
      ++state->pending;
      ++slot.chains_running;
      pool_->Submit([run_chain_task, s] { run_chain_task(s, 0); });
    }

    bool hedges_launched = !params_.enable_hedging;
    while (state->pending > 0) {
      double remaining = std::numeric_limits<double>::infinity();
      if (state->has_budget) {
        remaining = state->budget.deadline.RemainingSeconds();
        if (remaining <= 0.0) break;
      }
      if (!hedges_launched) {
        const double elapsed =
            static_cast<double>(NowNanos() - state->start_nanos) * 1e-9;
        const double until_hedge = params_.hedge_delay_seconds - elapsed;
        if (until_hedge <= 0.0) {
          for (size_t s = 0; s < state->slots.size(); ++s) {
            GatherSlot& slot = state->slots[s];
            if (slot.done || slot.chains_running == 0) continue;
            slot.hedged = true;
            ++slot.chains_running;
            metrics.hedges->Increment();
            pool_->Submit(
                [run_chain_task, s] { run_chain_task(s, kHedgeAttemptBase); });
          }
          hedges_launched = true;
          continue;
        }
        state->cv.WaitFor(state->mu,
                          std::min({until_hedge, remaining, 60.0}));
      } else {
        state->cv.WaitFor(state->mu, std::min(remaining, 60.0));
      }
    }

    // Slots still pending missed the deadline: record the gap and leave the
    // stragglers to resolve against the shared state after we return.
    for (GatherSlot& slot : state->slots) {
      if (!slot.done) {
        slot.done = true;
        slot.deadline_missed = true;
        slot.failure = Status::Unavailable(
            "shard probe unresolved when the query deadline expired");
        --state->pending;
      }
    }
    *slots = state->slots;
  }
}

Result<SearchResult> ShardedMbi::Search(const float* query,
                                        const TimeWindow& window,
                                        const SearchParams& search,
                                        QueryContext* ctx,
                                        ShardQueryTrace* trace) const {
  const ShardMetrics& metrics = ShardMetrics::Get();
  metrics.queries->Increment();
  if (query == nullptr || !IsFiniteVector(query, dim_)) {
    return Status::InvalidArgument(
        "query vector is null or has non-finite (NaN/Inf) components");
  }
  MBI_CHECK(ctx != nullptr);

  // Plan: map the window to the contiguous run of overlapping shards, then
  // drop empty shards — Algorithm 4's overlap pruning one level up.
  std::vector<ShardRef> selected;
  size_t pruned = 0;
  std::shared_ptr<ShardFaultInjector> injector;
  {
    MutexLock lock(mu_);
    injector = injector_;
    const size_t n = entries_.size();
    if (n > 0) {
      const int64_t span = params_.shard_span;
      const int64_t lo_t = std::max<Timestamp>(window.start, 0);
      const int64_t covered_end = static_cast<int64_t>(n) * span;
      const int64_t hi_t = std::min<Timestamp>(window.end, covered_end);
      if (hi_t > lo_t) {
        const size_t lo = static_cast<size_t>(lo_t / span);
        const size_t hi = static_cast<size_t>((hi_t - 1) / span);
        pruned = n - (hi - lo + 1);
        for (size_t i = lo; i <= hi; ++i) {
          const ShardEntry& e = entries_[i];
          if (e.index->size() == 0) {
            ++pruned;
            continue;
          }
          selected.push_back(
              ShardRef{i, e.index, e.base, e.healthy, e.fault});
        }
      } else {
        pruned = n;
      }
    }
  }

  if (selected.empty()) {
    SearchResult empty;
    if (trace != nullptr) {
      *trace = ShardQueryTrace{};
      trace->shards_pruned = pruned;
    }
    return empty;
  }

  // Slice the caller's budget across the healthy fan-out: shared deadline
  // and cancellation, divided work caps.
  size_t healthy = 0;
  for (const ShardRef& ref : selected) healthy += ref.healthy ? 1 : 0;
  QueryBudget child;
  SearchParams child_params = search;
  if (search.budget != nullptr) {
    child = search.budget->Slice(std::max<size_t>(healthy, 1));
    child_params.budget = &child;
  }

  // One seed per query: every probe derives its context (and its backoff
  // jitter) from it, so a replay with the same caller rng state and fault
  // schedule reproduces the fan-out bit for bit.
  const uint64_t query_seed = ctx->rng()->Next();

  std::vector<GatherSlot> slots;
  if (pool_ != nullptr) {
    GatherConcurrent(selected, query, window, child_params, query_seed,
                     injector, &slots);
  } else {
    GatherSerial(selected, query, window, child_params, query_seed, injector,
                 &slots);
  }

  // Merge with duplicate suppression, then derive the completion contract.
  std::vector<const SearchResult*> parts;
  for (const GatherSlot& slot : slots) {
    if (!slot.ok) continue;
    for (const SearchResult& part : slot.parts) parts.push_back(&part);
  }
  SearchResult merged = MergeShardResults(search.k, parts);
  merged.shards_total = static_cast<uint32_t>(slots.size());
  size_t ok_count = 0;
  bool all_missing_were_deadline = true;
  bool any_part_degraded = false;
  DegradeReason part_reason = DegradeReason::kNone;
  size_t blocks_skipped = 0;
  for (const GatherSlot& slot : slots) {
    if (slot.ok) {
      ++ok_count;
      for (const SearchResult& part : slot.parts) {
        blocks_skipped += part.blocks_skipped;
        if (part.degraded() && !any_part_degraded) {
          any_part_degraded = true;
          part_reason = part.degrade_reason;
        }
      }
    } else if (!slot.deadline_missed) {
      all_missing_were_deadline = false;
    }
  }
  merged.shards_ok = static_cast<uint32_t>(ok_count);
  merged.blocks_skipped = blocks_skipped;
  if (ok_count < slots.size()) {
    merged.completion = Completion::kDegraded;
    merged.degrade_reason = all_missing_were_deadline
                                ? DegradeReason::kDeadlineExceeded
                                : DegradeReason::kShardUnavailable;
    metrics.partial_results->Increment();
  } else if (any_part_degraded) {
    merged.completion = Completion::kDegraded;
    merged.degrade_reason = part_reason;
  }

  if (trace != nullptr) {
    *trace = ShardQueryTrace{};
    trace->shards_selected = slots.size();
    trace->shards_pruned = pruned;
    trace->shards_ok = ok_count;
    for (const GatherSlot& slot : slots) {
      ShardQueryTrace::Probe p;
      p.shard_index = slot.shard_index;
      p.attempts = slot.attempts;
      p.retries = slot.retries;
      p.hedged = slot.hedged;
      p.ok = slot.ok;
      p.quarantined = slot.quarantined;
      p.latency_seconds = slot.latency_seconds;
      if (!slot.ok) p.error = slot.failure.ToString();
      trace->retries_total += slot.retries;
      trace->hedges_fired += slot.hedged ? 1 : 0;
      trace->probes.push_back(std::move(p));
    }
  }

  // Caller-selectable coverage floor: below it, fail loudly instead of
  // returning a merge the caller considers too thin.
  if (merged.ShardCoverage() < params_.min_result_coverage) {
    metrics.coverage_failures->Increment();
    return Status::Unavailable(
        "only " + std::to_string(ok_count) + "/" +
        std::to_string(slots.size()) +
        " shards answered, below min_result_coverage");
  }
  return merged;
}

}  // namespace mbi::shard
