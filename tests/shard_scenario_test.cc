// The sharded scenario harness: catalog sanity, deterministic replay
// bit-identity (event-log fingerprints), the brownout and crash/requery
// flight plans with their invariants (I7 shard-oracle-match, I8
// shard-retry-budget, I1, I4), and short concurrent storms (TSan target —
// scripts/sanitize_smoke.sh --tsan shard_scenario_test).
//
// MBI_SOAK=1 additionally runs the soak variants in concurrent mode (the CI
// scenario-soak job sets it).

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/catalog.h"
#include "scenario/driver.h"
#include "scenario/event_log.h"
#include "scenario/invariants.h"
#include "shard/shard_scenario.h"

namespace mbi::shard {
namespace {

using scenario::RunMode;
using scenario::RunOptions;
using scenario::ScenarioOutcome;
using scenario::Violation;

ShardScenarioSpec MustGet(const std::string& name, uint64_t seed,
                          bool soak = false) {
  Result<ShardScenarioSpec> spec = GetShardScenario(name, seed, soak);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

ScenarioOutcome MustRun(const ShardScenarioSpec& spec,
                        const RunOptions& opts) {
  Result<ScenarioOutcome> run = RunShardScenario(spec, opts);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

std::string Violations(const ScenarioOutcome& outcome) {
  std::string all;
  for (const Violation& v : outcome.violations) {
    all += std::string(scenario::InvariantName(v.id)) + ": " + v.detail + "\n";
  }
  return all;
}

// ------------------------------------------------------------- catalog --

TEST(ShardCatalog, NamesAndLookup) {
  const std::vector<std::string> names = ShardCatalogNames();
  ASSERT_EQ(names.size(), 2u);
  for (const std::string& name : names) {
    const ShardScenarioSpec spec = MustGet(name, 7);
    EXPECT_TRUE(spec.Validate().ok()) << name;
    // Catalog specs use flat (exact) shards: the oracle-match invariant
    // compares exact against exact.
    EXPECT_EQ(spec.sharded.shard.block_kind, BlockIndexKind::kFlat);
    EXPECT_EQ(spec.sharded.min_result_coverage, 0.0);
  }
  EXPECT_EQ(GetShardScenario("nope", 7).status().code(),
            StatusCode::kNotFound);
}

TEST(ShardScenarioSpecValidate, RejectsNonsense) {
  ShardScenarioSpec spec = MustGet("shard_brownout", 7);
  ShardScenarioSpec bad = spec;
  bad.adds = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = spec;
  bad.fault_shard = 99;
  EXPECT_FALSE(bad.Validate().ok());
  bad = spec;
  bad.blackout_begin_frac = 0.9;
  bad.blackout_end_frac = 0.1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = spec;
  bad.crash_requery = true;  // both epilogues at once
  EXPECT_FALSE(bad.Validate().ok());
}

// ------------------------------------------------ deterministic replay --

TEST(ShardScenarioReplay, BrownoutFingerprintIsBitStable) {
  const ShardScenarioSpec spec = MustGet("shard_brownout", 21);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome a = MustRun(spec, opts);
  const ScenarioOutcome b = MustRun(spec, opts);
  EXPECT_EQ(a.log.Fingerprint(), b.log.Fingerprint())
      << "first divergence:\n"
      << a.log.ToString().substr(0, 2000);
  EXPECT_TRUE(a.ok()) << Violations(a);

  // A different seed is a different run.
  const ShardScenarioSpec other = MustGet("shard_brownout", 22);
  const ScenarioOutcome c = MustRun(other, opts);
  EXPECT_NE(a.log.Fingerprint(), c.log.Fingerprint());
}

TEST(ShardScenarioReplay, CrashRequeryFingerprintIsBitStable) {
  const ShardScenarioSpec spec = MustGet("shard_crash_requery", 33);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome a = MustRun(spec, opts);
  const ScenarioOutcome b = MustRun(spec, opts);
  EXPECT_EQ(a.log.Fingerprint(), b.log.Fingerprint());
  EXPECT_TRUE(a.ok()) << Violations(a);
}

// ----------------------------------------------------- flight plans --

TEST(ShardBrownout, ExercisesHedgesRetriesAndPartialResults) {
  const ShardScenarioSpec spec = MustGet("shard_brownout", 5);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << Violations(outcome);

  // The brownout must actually bite: hedges fired, sheds were retried, the
  // blackout degraded queries to partial coverage, and the epilogue
  // quarantined + revived the target shard.
  EXPECT_GT(outcome.stats.hedges, 0u);
  EXPECT_GT(outcome.stats.shard_retries, 0u);
  EXPECT_GT(outcome.stats.partial_results, 0u);
  EXPECT_GE(outcome.stats.quarantines, 1u);
  EXPECT_GE(outcome.stats.recoveries, 1u);
  EXPECT_GT(outcome.stats.queries, 0u);
  EXPECT_EQ(outcome.stats.final_size, spec.adds);
  EXPECT_GT(outcome.log.Count(scenario::EventKind::kHedge), 0u);
  EXPECT_GT(outcome.log.Count(scenario::EventKind::kQuarantine), 0u);
}

TEST(ShardCrashRequery, RecoversBackfillsAndRequeries) {
  const ShardScenarioSpec spec = MustGet("shard_crash_requery", 9);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << Violations(outcome);

  EXPECT_EQ(outcome.stats.crashes, 1u);
  EXPECT_GE(outcome.stats.recoveries, 1u);
  EXPECT_GE(outcome.stats.checkpoints_committed, 1u);
  EXPECT_GE(outcome.stats.quarantines, 1u);
  // The backfill restored every lost row.
  EXPECT_EQ(outcome.stats.final_size, spec.adds);
  EXPECT_EQ(outcome.log.Count(scenario::EventKind::kCrash), 1u);
  EXPECT_GE(outcome.log.Count(scenario::EventKind::kRecover), 1u);
}

// ---------------------------------------------------------- concurrent --

TEST(ShardScenarioConcurrent, BrownoutStormStaysValid) {
  const ShardScenarioSpec spec = MustGet("shard_brownout", 13);
  RunOptions opts;
  opts.mode = RunMode::kConcurrent;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << Violations(outcome);
  EXPECT_GT(outcome.stats.queries, 0u);
  EXPECT_GE(outcome.stats.recoveries, 1u);
}

TEST(ShardScenarioConcurrent, CrashRequeryStormStaysValid) {
  const ShardScenarioSpec spec = MustGet("shard_crash_requery", 17);
  RunOptions opts;
  opts.mode = RunMode::kConcurrent;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << Violations(outcome);

  // After the storm the target crashes once, comes back from its clean
  // checkpoint (phase 5, apart from the storm's own recover in phase 1) and
  // is backfilled to the full stream.
  EXPECT_EQ(outcome.stats.crashes, 1u);
  EXPECT_EQ(outcome.log.Count(scenario::EventKind::kCrash), 1u);
  size_t crash_leg_recoveries = 0;
  for (const scenario::Event& e : outcome.log.events()) {
    if (e.kind == scenario::EventKind::kRecover && e.phase == 5) {
      ++crash_leg_recoveries;
    }
  }
  EXPECT_GE(crash_leg_recoveries, 1u);
  EXPECT_EQ(outcome.stats.final_size, spec.adds);
}

// With an injected distance delay the storm's deadline-bounded queries are
// sampled and I3 is judged with the core driver's rule, as in the
// single-index catalog.
TEST(ShardScenarioConcurrent, StormJudgesDeadlineOvershoot) {
  const ShardScenarioSpec spec = MustGet("shard_brownout", 13);
  RunOptions opts;
  opts.mode = RunMode::kConcurrent;
  opts.injected_distance_delay_nanos = 1000;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << Violations(outcome);
  EXPECT_GE(outcome.stats.overshoot_samples, 20u);
  EXPECT_LE(outcome.stats.p99_overshoot, scenario::kCatalogP99OvershootFactor);
  constexpr auto kI3 =
      static_cast<uint64_t>(scenario::InvariantId::kDeadlineOvershoot);
  size_t judged = 0;
  for (const scenario::Event& e : outcome.log.events()) {
    if (e.kind == scenario::EventKind::kInvariant && e.a == kI3) {
      ++judged;
      EXPECT_EQ(e.b, 1u);  // held
    }
  }
  EXPECT_EQ(judged, 1u);
}

TEST(ShardScenarioSoak, LongVariantsUnderConcurrency) {
  if (std::getenv("MBI_SOAK") == nullptr) {
    GTEST_SKIP() << "set MBI_SOAK=1 for the long variants";
  }
  for (const std::string& name : ShardCatalogNames()) {
    const ShardScenarioSpec spec = MustGet(name, 101, /*soak=*/true);
    RunOptions opts;
    opts.mode = RunMode::kConcurrent;
    const ScenarioOutcome outcome = MustRun(spec, opts);
    EXPECT_TRUE(outcome.ok()) << name << ":\n" << Violations(outcome);
  }
}

}  // namespace
}  // namespace mbi::shard
