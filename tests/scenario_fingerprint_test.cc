// Pinned replay fingerprints for every catalog scenario.
//
// scenario_test and shard_scenario_test prove same-run replay identity: two
// runs of one build agree. This file pins the values themselves, so a change
// to scenario behaviour across commits — an event reordered, a draw added,
// a result bit moved — fails here. A change that alters them on purpose
// (new kernels, a new event) re-records the table and says why in
// CHANGES.md.
//
// Every run is the short variant in RunMode::kDeterministic with default
// RunOptions. The values hold in Release and Debug builds alike.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/driver.h"
#include "shard/shard_scenario.h"

namespace mbi::scenario {
namespace {

struct Pinned {
  const char* name;
  uint32_t seed42;
  uint32_t seed7;
};

constexpr Pinned kPinned[] = {
    {"steady_state_soak", 0x48af6b6a, 0xc3e3da07},
    {"market_open_burst", 0xaf4dd3d7, 0xa58636db},
    {"crash_during_cascade", 0xae527b7a, 0x8dfb0b21},
    {"overload_storm", 0xcb974158, 0xc0017847},
    {"recover_then_requery", 0x28f59dd3, 0x029f582e},
    {"shard_brownout", 0x7f3c8f6a, 0x20485724},
    {"shard_crash_requery", 0xbfc11cf3, 0x1e4ce40d},
};

uint32_t Fingerprint(const std::string& name, uint64_t seed) {
  Result<ScenarioOutcome> run =
      shard::RunCatalogScenario(name, seed, /*soak=*/false, RunOptions{});
  EXPECT_TRUE(run.ok()) << name << ": " << run.status().ToString();
  if (!run.ok()) return 0;
  EXPECT_TRUE(run.value().ok()) << name << " seed " << seed << ": "
                                << run.value().ViolationSummary();
  return run.value().log.Fingerprint();
}

TEST(PinnedFingerprints, TableCoversBothCatalogs) {
  const std::vector<std::string> names = shard::AllCatalogNames();
  ASSERT_EQ(names.size(), std::size(kPinned));
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], kPinned[i].name);
  }
}

TEST(PinnedFingerprints, Seed42) {
  for (const Pinned& p : kPinned) {
    EXPECT_EQ(Fingerprint(p.name, 42), p.seed42) << p.name;
  }
}

TEST(PinnedFingerprints, Seed7) {
  for (const Pinned& p : kPinned) {
    EXPECT_EQ(Fingerprint(p.name, 7), p.seed7) << p.name;
  }
}

}  // namespace
}  // namespace mbi::scenario
