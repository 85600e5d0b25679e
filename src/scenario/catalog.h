// The canonical scenario catalog.
//
// Five named scenarios cover the interaction surface the units cannot:
//
//   steady_state_soak    uniform ingest + mixed queries + periodic
//                        checkpoints; the long-haul baseline
//   market_open_burst    quiet pre-open, then a 10x query burst of short
//                        windows under tight deadlines, then normal load
//   crash_during_cascade tiny leaves + ingest backpressure so merge
//                        cascades are always in flight, checkpoint faults
//                        injected, a scripted crash mid-phase
//   overload_storm       a small admission limit rammed by deadline-bounded
//                        query bursts well past capacity
//   recover_then_requery crash-heavy ingest, then a query-only epilogue
//                        proving the recovered index still answers well
//
// Every scenario has a short variant (tier-1 tests, seconds) and a soak
// variant (~10x the adds, more reader threads; CI runs it under TSan behind
// MBI_SOAK=1).

#ifndef MBI_SCENARIO_CATALOG_H_
#define MBI_SCENARIO_CATALOG_H_

#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "util/status.h"

namespace mbi::scenario {

/// The catalog's p99 deadline-overshoot bound (I3), shared by the sharded
/// catalog. Millisecond deadlines measured on loaded CI machines (and under
/// TSan) carry scheduler-descheduling tails of tens of ms; broken deadline
/// polling shows up as ratios in the hundreds, so a generous bound still
/// separates the two cleanly without flaking.
inline constexpr double kCatalogP99OvershootFactor = 25.0;

/// Names of the canonical scenarios, in catalog order.
std::vector<std::string> CatalogNames();

/// The named scenario with the given seed; `soak` selects the long variant.
/// NotFound for names outside the catalog.
Result<ScenarioSpec> GetScenario(const std::string& name, uint64_t seed,
                                 bool soak = false);

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_CATALOG_H_
