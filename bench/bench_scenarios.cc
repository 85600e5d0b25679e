// Scenario harness runner: replays scenarios from both catalogs — the five
// single-index ones (scenario/catalog.h) and the two sharded ones
// (shard/shard_scenario.h) — and emits BENCH_scenarios.json with every run's
// stats, event-log fingerprint and invariant violations.
//
//   ./build/bench_scenarios --scenario=market_open_burst --seed=42
//   ./build/bench_scenarios --scenario=shard_brownout
//   ./build/bench_scenarios --scenario=all --mode=concurrent
//   ./build/bench_scenarios --list
//
// Flags:
//   --scenario=<name|all>   which catalog entry to run (default all)
//   --seed=N                scenario seed (default 42)
//   --mode=<deterministic|concurrent|both>   default both
//   --soak                  long variants (also enabled by MBI_SOAK=1)
//   --verbose               dump the full event log of each run
//
// Exit status is non-zero when any invariant was violated, so CI can gate
// on this binary directly.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_writer.h"
#include "scenario/driver.h"
#include "shard/shard_scenario.h"
#include "util/timer.h"

namespace {

using mbi::scenario::RunMode;
using mbi::scenario::RunModeName;
using mbi::scenario::RunOptions;
using mbi::scenario::ScenarioOutcome;
using mbi::scenario::ScenarioStats;
using mbi::scenario::Violation;
using mbi::shard::AllCatalogNames;
using mbi::shard::RunCatalogScenario;

struct Flags {
  std::string scenario = "all";
  uint64_t seed = 42;
  std::string mode = "both";
  bool soak = false;
  bool verbose = false;
  bool list = false;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* sv = value("--scenario=")) {
      f->scenario = sv;
    } else if (const char* dv = value("--seed=")) {
      f->seed = std::strtoull(dv, nullptr, 10);
    } else if (const char* mv = value("--mode=")) {
      f->mode = mv;
    } else if (arg == "--soak") {
      f->soak = true;
    } else if (arg == "--verbose") {
      f->verbose = true;
    } else if (arg == "--list") {
      f->list = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (f->mode != "deterministic" && f->mode != "concurrent" &&
      f->mode != "both") {
    std::fprintf(stderr, "--mode must be deterministic|concurrent|both\n");
    return false;
  }
  return true;
}

void WriteOutcomeJson(mbi::obs::JsonWriter* w, const ScenarioOutcome& o,
                      double run_seconds) {
  w->BeginObject();
  w->Key("scenario");
  w->String(o.name);
  w->Key("seed");
  w->Uint(o.seed);
  w->Key("mode");
  w->String(RunModeName(o.mode));
  w->Key("ok");
  w->Bool(o.ok());
  w->Key("event_log_fingerprint");
  w->Uint(o.log.Fingerprint());
  w->Key("events");
  w->Uint(o.log.size());
  w->Key("run_seconds");
  w->Double(run_seconds);

  const ScenarioStats& st = o.stats;
  w->Key("stats");
  w->BeginObject();
  for (const auto& [key, value] : {
           std::pair<const char*, size_t>{"add_ops", st.add_ops},
           {"queries", st.queries},
           {"complete", st.complete},
           {"degraded", st.degraded},
           {"shed", st.shed},
           {"checkpoints_committed", st.checkpoints_committed},
           {"checkpoint_faults", st.checkpoint_faults},
           {"crashes", st.crashes},
           {"recoveries", st.recoveries},
           {"overload_bursts", st.overload_bursts},
           {"final_size", st.final_size},
           {"final_blocks", st.final_blocks},
           {"inflight_high_water", st.inflight_high_water},
           {"recall_samples", st.recall_samples},
           {"overshoot_samples", st.overshoot_samples},
           {"hedges", st.hedges},
           {"shard_retries", st.shard_retries},
           {"quarantines", st.quarantines},
           {"partial_results", st.partial_results},
       }) {
    w->Key(key);
    w->Uint(value);
  }
  w->Key("recall_mean");
  w->Double(st.recall_mean);
  w->Key("p99_overshoot");
  w->Double(st.p99_overshoot);
  w->Key("wall_seconds");
  w->Double(st.wall_seconds);
  w->EndObject();

  w->Key("violations");
  w->BeginArray();
  for (const Violation& v : o.violations) {
    w->BeginObject();
    w->Key("invariant");
    w->String(mbi::scenario::InvariantName(v.id));
    w->Key("detail");
    w->String(v.detail);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  if (flags.list) {
    for (const std::string& name : AllCatalogNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  const char* soak_env = std::getenv("MBI_SOAK");
  if (soak_env != nullptr && soak_env[0] == '1') flags.soak = true;

  std::vector<std::string> names;
  if (flags.scenario == "all") {
    names = AllCatalogNames();
  } else {
    names.push_back(flags.scenario);
  }
  std::vector<RunMode> modes;
  if (flags.mode != "concurrent") modes.push_back(RunMode::kDeterministic);
  if (flags.mode != "deterministic") modes.push_back(RunMode::kConcurrent);

  std::printf("scenario harness: %zu scenario(s), seed %llu, %s variants\n",
              names.size(), static_cast<unsigned long long>(flags.seed),
              flags.soak ? "soak" : "short");

  mbi::obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("scenarios");
  json.Key("seed");
  json.Uint(flags.seed);
  json.Key("soak");
  json.Bool(flags.soak);
  json.Key("runs");
  json.BeginArray();

  bool all_ok = true;
  for (const std::string& name : names) {
    for (RunMode mode : modes) {
      RunOptions opts;
      opts.mode = mode;
      if (mode == RunMode::kConcurrent) {
        // Make per-query work expensive enough that deadlines and admission
        // pressure actually bite (see RunOptions); the sharded driver applies
        // it to its query storm.
        opts.injected_distance_delay_nanos = 2000;
      }
      mbi::WallTimer timer;
      mbi::Result<ScenarioOutcome> run =
          RunCatalogScenario(name, flags.seed, flags.soak, opts);
      const double seconds = timer.ElapsedSeconds();
      if (!run.ok()) {
        std::fprintf(stderr, "%s [%s]: harness failure: %s\n", name.c_str(),
                     RunModeName(mode), run.status().ToString().c_str());
        return 2;
      }
      const ScenarioOutcome& o = run.value();
      std::printf(
          "%-22s %-13s %5.2fs  adds=%zu queries=%zu degraded=%zu shed=%zu "
          "ckpts=%zu faults=%zu crashes=%zu hedges=%zu partial=%zu "
          "recall=%.3f/%zu  fp=%08x  %s\n",
          o.name.c_str(), RunModeName(mode), seconds, o.stats.add_ops,
          o.stats.queries, o.stats.degraded, o.stats.shed,
          o.stats.checkpoints_committed, o.stats.checkpoint_faults,
          o.stats.crashes, o.stats.hedges, o.stats.partial_results,
          o.stats.recall_mean, o.stats.recall_samples, o.log.Fingerprint(),
          o.ok() ? "OK" : "VIOLATIONS");
      if (!o.ok()) {
        all_ok = false;
        std::printf("%s", o.ViolationSummary().c_str());
      }
      if (flags.verbose) std::printf("%s", o.log.ToString().c_str());
      WriteOutcomeJson(&json, o, seconds);
      std::fflush(stdout);
    }
  }

  json.EndArray();
  json.Key("ok");
  json.Bool(all_ok);
  json.EndObject();

  const std::string path = "BENCH_scenarios.json";
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f != nullptr) {
    const std::string& doc = json.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("\nmetrics: wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  if (!all_ok) {
    std::fprintf(stderr, "\ninvariant violations detected\n");
    return 1;
  }
  std::printf("all scenarios passed\n");
  return 0;
}
